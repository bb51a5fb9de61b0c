package core

import (
	"context"
	"errors"
	"fmt"

	"ecstore/internal/model"
	"ecstore/internal/placement"
)

// ErrRangeOutOfBounds reports a byte range outside a block.
var ErrRangeOutOfBounds = errors.New("core: range outside block")

// GetRange reads n bytes of a block starting at byte offset off without
// assembling the whole block: the range is mapped to the per-chunk
// window of stripes it touches (erasure.Layout.Window), the chunks are
// chosen, fetched and replanned exactly as for GetMulti (Eq. 1 plan,
// late binding, hedging) but each read fetches only that window via
// GetChunkRange, and the window is decoded and gathered into the
// requested bytes. For a striped block a
// small range therefore reads and decodes a small fraction of its
// stripes; a legacy contiguous block degrades gracefully (a range
// inside one data chunk stays tight, a chunk-crossing range reads whole
// chunks). Range reads of cached decoded blocks are sliced from the
// cache without any site access.
func (c *Client) GetRange(ctx context.Context, id model.BlockID, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("%w: [%d,+%d)", ErrRangeOutOfBounds, off, n)
	}
	ctx, cancel := c.requestCtx(ctx)
	defer cancel()
	c.obs.rangeReads.Inc()

	// Read-through for blocks still staged in the packer.
	if c.packer != nil {
		if data, ok := c.packer.get(id); ok {
			if off+n > int64(len(data)) {
				return nil, fmt.Errorf("%w: [%d,%d) of %d-byte staged block %s", ErrRangeOutOfBounds, off, off+n, len(data), id)
			}
			c.obs.rangeBytes.Add(n)
			return data[off : off+n : off+n], nil
		}
	}

	metas, err := c.meta.Lookup([]model.BlockID{id})
	if err != nil {
		return nil, fmt.Errorf("metadata lookup: %w", err)
	}
	meta := metas[id]
	if off+n > meta.Size {
		return nil, fmt.Errorf("%w: [%d,%d) of %d-byte block %s", ErrRangeOutOfBounds, off, off+n, meta.Size, id)
	}
	// A pack member's bytes are a sub-range of its container: shift the
	// offset and read the container's chunks instead.
	if meta.Packed() {
		off += meta.PackedOff
		meta = containerView(meta)
	}
	return c.rangeRead(ctx, meta, off, n)
}

// containerView turns a synthesized pack-member meta into a readable
// view of its container: chunk refs must name the container, and the
// member's end offset is a valid lower bound for the container size in
// the window math (registration guarantees PackedOff+Size fits).
func containerView(meta *model.BlockMeta) *model.BlockMeta {
	v := meta.Clone()
	v.ID = meta.PackedIn
	v.Size = meta.PackedOff + meta.Size
	v.PackedIn, v.PackedOff = "", 0
	return v
}

// rangeRead serves [off, off+n) of the (non-packed) block described by
// meta. The caller has bounds-checked the range against meta.Size.
func (c *Client) rangeRead(ctx context.Context, meta *model.BlockMeta, off, n int64) ([]byte, error) {
	if n == 0 {
		return []byte{}, nil
	}
	// A cached decoded block already holds every byte: slice it without
	// touching any site. Entries are version-keyed, so a moved or
	// rewritten block cannot serve stale ranges.
	if c.cache != nil {
		if data, ok := c.cache.Get(meta.ID, meta.Version); ok && off+n <= int64(len(data)) {
			c.obs.rangeCacheHit.Inc()
			c.obs.rangeBytes.Add(n)
			return data[off : off+n : off+n], nil
		}
	}

	// The range is fetched like any other block read — planned, late
	// bound, hedged and replanned by planFetch — with every chunk read
	// narrowed to the window the range maps to. A replicated block's
	// copies are contiguous single "data chunks" (K = 1), so its window
	// is the range itself.
	lay := layoutOf(meta)
	lo, hi, err := lay.Window(off, n)
	if err != nil {
		return nil, err
	}
	req := placement.PlanRequest{Metas: map[model.BlockID]*model.BlockMeta{meta.ID: meta}, Available: c.available}
	var bd model.Breakdown // GetRange reports no phase breakdown
	fetched, err := c.planFetch(ctx, req, map[model.BlockID]window{meta.ID: {lo, hi}}, nil, &bd)
	if err != nil {
		return nil, err
	}
	if meta.Scheme == model.SchemeReplicated {
		c.obs.rangeBytes.Add(n)
		return c.assemble(meta, fetched[meta.ID])
	}
	win := make([]byte, int64(meta.K)*(hi-lo))
	if err := c.codec.DecodeInto(win, fetched[meta.ID]); err != nil {
		return nil, fmt.Errorf("decode range of %s: %w", meta.ID, err)
	}
	dst := make([]byte, n)
	if err := lay.Gather(dst, win, lo, off); err != nil {
		return nil, fmt.Errorf("gather range of %s: %w", meta.ID, err)
	}
	c.obs.rangeStripes.Add(lay.WindowStripes(lo, hi))
	c.obs.rangeBytes.Add(n)
	return dst, nil
}
