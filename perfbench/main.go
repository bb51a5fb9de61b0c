// Command perfbench is EC-Store's end-to-end benchmark. It boots an
// in-process cluster on real TCP loopback — a WAL-backed catalog behind
// the metadata RPC server, eight MemStore storage services behind storage
// RPC servers and one core.Client, wired as the cmd/ daemons wire them —
// and drives one seeded closed-loop workload with two clients, verifying
// every byte read.
//
//	perfbench --workload ycsbe-scan --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then again traced, and prints the
// per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// setupReps is how many times a --trace 0 run boots and preloads a
// cluster; setup_s takes the median.
const setupReps = 3

// outDir holds WAL directories, span files and result records, relative
// to the checkout root the benchmark runs from.
const outDir = ".perfbench"

func main() {
	//lint:ignore ctxfirst the benchmark's entry point owns the root context
	ctx := context.Background()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Note qualifies the value in the text report (sample count,
	// percentile actually used).
	Note string `json:"-"`
	// TextOnly metrics are printed but left out of the JSON result line,
	// which carries the same metric set for every workload.
	TextOnly bool `json:"-"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: ycsbe-scan, hot-range or ingest-mix")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 10, "measured window length in seconds")
	traced := fl.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return err
	}
	sp, ok := specs[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	env := environment(*seed)
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", sp.name, *seed, *seconds, *traced)
	fmt.Fprintf(stdout, "env %s\n", env)

	var out []metric
	var acc accounting
	if *traced == 0 {
		m, err := measure(ctx, sp, *seed, *seconds, setupReps, nil, outDir)
		if err != nil {
			return err
		}
		describe(stdout, "run", m)
		acc = m.accounting()
		out = endToEnd(m)
	} else {
		plain, err := measure(ctx, sp, *seed, *seconds, 1, nil, outDir)
		if err != nil {
			return err
		}
		describe(stdout, "untraced", plain)
		tr := newTracer()
		m, err := measure(ctx, sp, *seed, *seconds, 1, tr, outDir)
		if err != nil {
			return err
		}
		describe(stdout, "traced", m)
		parentOps(m.spans)
		if err := os.MkdirAll(filepath.Join(outDir, "traces"), 0o755); err != nil {
			return err
		}
		spanFile := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.tsv.gz", sp.name, *seed))
		if err := writeSpans(spanFile, m.spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(m.spans), spanFile)
		acc = plain.accounting()
		acc.add(m.accounting())
		if out, err = perLayer(m, plain); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "accounting attempted=%d failed=%d mismatched=%d durability_missing=%d error_rate=%g\n",
		acc.Attempted, acc.Failed, acc.Mismatched, acc.Missing, acc.errorRate())
	for _, x := range out {
		printMetric(stdout, x)
	}

	res := result{
		Correct:   acc.Mismatched == 0 && acc.Missing == 0,
		Attempted: acc.Attempted,
		Failed:    acc.bad(),
		Metrics:   make(map[string]metric, len(out)),
	}
	for _, x := range out {
		if !x.TextOnly {
			res.Metrics[x.Name] = x
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := record(env, sp.name, *seed, *traced, line); err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return errors.New("outputs failed verification")
	}
	return nil
}

func printMetric(w io.Writer, x metric) {
	if x.TextOnly {
		x.Note = strings.TrimPrefix(x.Note+"; text only", "; ")
	}
	if x.Note != "" {
		fmt.Fprintf(w, "%-40s %14.6g %-6s (%s)\n", x.Name, x.Value, x.Unit, x.Note)
		return
	}
	fmt.Fprintf(w, "%-40s %14.6g %s\n", x.Name, x.Value, x.Unit)
}

func describe(w io.Writer, label string, m *measurement) {
	fmt.Fprintf(w, "%s boot_preload_s=%.3f warmup_s=%.3f warmup_hit_ratios=%.3f window_s=%.3f ops=%d recover_s=%.4f durability_checked=%d\n",
		label, m.boot, m.warmS, m.warmRatios, m.elapsed.Seconds(), m.ops(), m.recover.Seconds(), m.checked)
}

// environment records what a result depends on besides the code:
// GOMAXPROCS, CPU count, Go version, the seed and the source revision.
func environment(seed int64) string {
	return fmt.Sprintf("GOMAXPROCS=%d nproc=%d go=%s seed=%d commit=%s source_sha256=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), seed, gitCommit(), sourceHash())
}

// gitCommit reads the checked-out commit from .git when the benchmark
// runs inside a git work tree, and reports "none" otherwise.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceHash identifies the code without git: a SHA-256 over the path
// and content of every Go source and module file in the tree.
func sourceHash() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// record appends the run's environment and metrics to a JSON-lines file
// beside the span files.
func record(env, workload string, seed int64, traced int, line []byte) error {
	f, err := os.OpenFile(filepath.Join(outDir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	rec := struct {
		Env      string          `json:"env"`
		Workload string          `json:"workload"`
		Seed     int64           `json:"seed"`
		Trace    int             `json:"trace"`
		Result   json.RawMessage `json:"result"`
	}{env, workload, seed, traced, line}
	b, err := json.Marshal(rec)
	if err != nil {
		_ = f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
