// Command bench is the repository's benchmark. It runs four workloads
// (tune, dense, fleet, rescue), each repetition in a child process of
// its own so that peak memory belongs to one workload, checks every
// run's outputs, and prints one line per metric:
//
//	workload metric value unit
//
// Usage:
//
//	go run . [-workload W] [-seed S] [-count N] [-seconds T] [-trace 0|1] [-tracedir DIR] [-json FILE]
//
// With no flags it runs every workload once. -count N repeats each
// workload N times, alternating the workload order, and prints median,
// quartiles and n. -seconds T keeps repeating for T wall seconds.
// -trace 1 adds a traced repetition of each workload, which writes
// DIR/<w>.trace.json and DIR/<w>.layers.json and reports the per-layer
// metrics and the tracing overhead. When one workload is selected the
// last line of output is a JSON summary of the metrics BENCHMARK.json
// declares. Any failed check exits non-zero without that line.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// endToEnd and perLayer are the metrics BENCHMARK.json declares: the
// summary line of an untraced run reports the first, that of a traced
// run the second.
var (
	endToEnd = []string{"sim_speed", "setup_s", "peak_rss_mb"}
	perLayer = []string{
		"run.chunk_ms_p50", "run.chunk_ms_p90",
		"selftune.events", "selftune.ns_per_event", "selftune.requests",
		"ktrace.records", "core.activations", "cluster.rejected", "cluster.replacements",
		"setup.build_ms", "setup.warmup_ms", "go.alloc_mb_per_sim_s", "go.gc_cycles",
		"req_p50_ms", "req_p99_ms", "miss_frac", "reject_frac", "tuned_bw", "live_frac",
		"trace_overhead",
	}
)

// workers is the load one process generates: the worker count of the
// cluster pool and of the machine lanes, and the GOMAXPROCS cap.
const workers = 2

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics []metric

func (m *metrics) add(name string, v float64, unit string) {
	*m = append(*m, metric{Name: name, Value: v, Unit: unit})
}

func (m metrics) byName() map[string]metric {
	out := make(map[string]metric, len(m))
	for _, x := range m {
		out[x.Name] = x
	}
	return out
}

// outcome is one repetition's result, passed from the child process
// to the parent as JSON.
type outcome struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Traced   bool    `json:"traced"`
	Digest   string  `json:"digest"`
	Host     metrics `json:"host"`   // measured on the host
	Sim      metrics `json:"sim"`    // simulated, deterministic at a seed
	Layers   metrics `json:"layers"` // per layer

	digestExtra []string // further simulated state folded into the digest
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (tune, dense, fleet or rescue)")
	seed := fs.Uint64("seed", 1, "input seed: 1 is the development seed, 2 is held out")
	count := fs.Int("count", 1, "repetitions of each workload")
	seconds := fs.Float64("seconds", 0, "keep repeating until this many wall seconds have passed")
	trace := fs.Int("trace", 0, "1 adds a traced repetition of each workload")
	traceDir := fs.String("tracedir", filepath.Join(".bench_build", "trace"), "where the traced run writes its files")
	jsonOut := fs.String("json", "", "also write the summary of every workload to this file")
	child := fs.Bool("child", false, "run one repetition and print its outcome (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 || *count < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("bad arguments (see -h)")
	}
	defs := workloads
	if *name != "" {
		def, err := lookupWorkload(*name)
		if err != nil {
			return err
		}
		defs = []*workloadDef{def}
	}
	if *child {
		return runChild(defs[0], *seed, *trace == 1, *traceDir, stdout)
	}

	ctx := context.Background()
	if *seconds > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(*seconds*float64(time.Second))+120*time.Second)
		defer cancel()
	}
	results, err := repeat(ctx, defs, *seed, *count, *seconds, *trace == 1, *traceDir)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	for _, res := range results {
		res.print(w)
	}
	if *jsonOut != "" {
		all := map[string]any{}
		for _, res := range results {
			all[res.def.name] = res.report()
		}
		if err := writeJSON(*jsonOut, map[string]any{"seed": *seed, "workloads": all}); err != nil {
			return err
		}
	}
	if len(results) == 1 {
		return results[0].summaryLine(w, *trace == 1)
	}
	return nil
}

// runChild runs one repetition in this process and prints its outcome.
func runChild(def *workloadDef, seed uint64, traced bool, traceDir string, stdout io.Writer) error {
	go func() {
		// Any end of stdin, EOF or error, means the parent is gone.
		_, _ = io.Copy(io.Discard, os.Stdin)
		fmt.Fprintln(os.Stderr, "bench: parent gone")
		os.Exit(1)
	}()
	runtime.GOMAXPROCS(min(workers, runtime.NumCPU()))
	c := config{seed: seed, workers: workers, scale: 1}
	if traced {
		c.rec = newRecorder()
	}
	o, err := execute(def, c)
	if err != nil {
		return err
	}
	if traced {
		if err := c.rec.write(traceDir, o); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return json.NewEncoder(stdout).Encode(o)
}

// result gathers every repetition of one workload.
type result struct {
	def    *workloadDef
	plain  []*outcome
	traced []*outcome
}

// repeat runs rounds of every workload, each repetition in a child
// process, alternating the workload order between rounds.
func repeat(ctx context.Context, defs []*workloadDef, seed uint64, count int, seconds float64,
	trace bool, traceDir string) ([]*result, error) {

	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	results := make([]*result, len(defs))
	for i, d := range defs {
		results[i] = &result{def: d}
	}
	start := time.Now()
	var longest time.Duration
	for round := 0; ; round++ {
		if round >= count && (seconds <= 0 || (time.Since(start)+longest).Seconds() > seconds) {
			break
		}
		t := time.Now()
		order := slices.Clone(results)
		if round%2 == 1 {
			slices.Reverse(order)
		}
		for _, res := range order {
			o, err := spawnChild(ctx, self, res.def.name, seed, false, traceDir)
			if err != nil {
				return nil, err
			}
			res.plain = append(res.plain, o)
			if trace {
				if o, err = spawnChild(ctx, self, res.def.name, seed, true, traceDir); err != nil {
					return nil, err
				}
				res.traced = append(res.traced, o)
			}
		}
		longest = max(longest, time.Since(t))
	}
	for _, res := range results {
		for _, o := range slices.Concat(res.plain[1:], res.traced) {
			if o.Digest != res.plain[0].Digest {
				return nil, fmt.Errorf("%s: simulated digest %s differs from %s: the run is not deterministic",
					res.def.name, o.Digest, res.plain[0].Digest)
			}
		}
	}
	return results, nil
}

func spawnChild(ctx context.Context, self, name string, seed uint64, traced bool, traceDir string) (*outcome, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	// The child exits when its stdin reaches EOF, which happens when this
	// process closes the write end below or dies.
	stdin, alive, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer stdin.Close()
	defer alive.Close()
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", name,
		"-seed", strconv.FormatUint(seed, 10), "-trace", trace, "-tracedir", traceDir)
	cmd.Stdin, cmd.Stderr = stdin, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", name, trace, err)
	}
	var o outcome
	if err := json.Unmarshal(bytes.TrimSpace(out), &o); err != nil {
		return nil, fmt.Errorf("%s: decode outcome: %w", name, err)
	}
	return &o, nil
}

// summary is the distribution of one metric over repetitions.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// summarize returns every metric's distribution, in first-seen order.
func summarize(outs []*outcome, pick func(*outcome) metrics) ([]string, map[string]summary) {
	var names []string
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, o := range outs {
		for _, m := range pick(o) {
			if _, ok := vals[m.Name]; !ok {
				names = append(names, m.Name)
				units[m.Name] = m.Unit
			}
			vals[m.Name] = append(vals[m.Name], m.Value)
		}
	}
	out := make(map[string]summary, len(names))
	for _, n := range names {
		med, q1, q3 := quartiles(vals[n])
		out[n] = summary{Median: med, Q1: q1, Q3: q3, N: len(vals[n]), Unit: units[n]}
	}
	return names, out
}

// quartiles returns the median and the first and third quartiles the
// way Python's statistics.median and statistics.quantiles(n=4) do.
func quartiles(xs []float64) (med, q1, q3 float64) {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 {
		return med, med, med
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return med, q(1), q(3)
}

// summary returns every metric's distribution over the repetitions,
// in report order: what the untraced repetitions report, then what
// only the traced ones report, then the tracing overhead.
func (res *result) summary() ([]string, map[string]summary) {
	all := func(o *outcome) metrics { return slices.Concat(o.Host, o.Sim, o.Layers) }
	names, sums := summarize(res.plain, all)
	if len(res.traced) == 0 {
		return names, sums
	}
	tnames, tsums := summarize(res.traced, all)
	for _, n := range tnames {
		if _, ok := sums[n]; !ok {
			names = append(names, n)
			sums[n] = tsums[n]
		}
	}
	names = append(names, "trace_overhead")
	sums["trace_overhead"] = summary{
		Median: ratio(sums["sim_speed"].Median, tsums["sim_speed"].Median) - 1,
		N:      len(res.traced), Unit: "ratio",
	}
	return names, sums
}

func (res *result) print(w io.Writer) {
	names, sums := res.summary()
	for _, n := range names {
		s := sums[n]
		fmt.Fprintf(w, "%-7s %-32s %14.6g %s", res.def.name, n, s.Median, s.Unit)
		if s.N > 1 {
			fmt.Fprintf(w, "  q1=%.6g q3=%.6g n=%d", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-7s digest %s\n", res.def.name, res.plain[0].Digest)
}

// report is the -json form of a result.
func (res *result) report() map[string]any {
	_, sums := res.summary()
	return map[string]any{"digest": res.plain[0].Digest, "metrics": sums}
}

// summaryLine prints the JSON line of the metrics BENCHMARK.json
// declares.
func (res *result) summaryLine(w io.Writer, traced bool) error {
	names := endToEnd
	if traced {
		names = perLayer
	}
	_, sums := res.summary()
	out := map[string]map[string]any{}
	for _, n := range names {
		s, ok := sums[n]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.def.name, n)
		}
		out[n] = map[string]any{"value": s.Median, "unit": s.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": len(res.plain) + len(res.traced),
		"failed":    0,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
