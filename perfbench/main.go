// Command perfbench runs one workload of the repository's end-to-end
// benchmark and prints its metrics as a JSON object on the last line
// of standard output:
//
//	perfbench --workload kv-paxos --seed 7 --seconds 15 --trace 0
//
// A run builds a whole deployment from the program's public
// constructors, loads it, measures it, checks its answers against a
// model the benchmark keeps itself, and tears it down: one cycle. It
// repeats identical cycles until --seconds have passed and reports
// medians over them. --trace 1 alternates plain and traced cycles and
// reports the per-layer metrics instead, writing the traced spans to
// --spans. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

type workload func(seed int64, l *layers) (*cycle, error)

var workloads = map[string]workload{
	"fs-tcp":   func(seed int64, l *layers) (*cycle, error) { return runFS(fsFull, seed, l) },
	"kv-paxos": func(seed int64, l *layers) (*cycle, error) { return runKV(kvFull, seed, l) },
	"dn-fleet": func(seed int64, l *layers) (*cycle, error) { return runDN(dnFull, seed, l) },
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"live_heap_mb", "MB"},
	{"op_p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"load.ops_per_s", "1/s"},
	{"load.op_p99_ms", "ms"},
	{"overlog.step_ms_per_op", "ms"},
	{"overlog.steps_per_op", "count"},
	{"overlog.derived_per_op", "count"},
	{"overlog.inserted_per_op", "count"},
	{"overlog.retracted_per_op", "count"},
	{"overlog.stored_tuples", "count"},
	{"overlog.install_ms_per_node", "ms"},
	{"overlog.heap_kb_per_node", "KB"},
	{"overlog.built_heap_kb_per_node", "KB"},
	{"paxos.rule_ms_per_op", "ms"},
	{"paxos.fires_per_op", "count"},
	{"kvstore.rule_ms_per_op", "ms"},
	{"boomfs.rule_ms_per_op", "ms"},
	{"boomfs.fires_per_op", "count"},
	{"sim.run_ms_per_op", "ms"},
	{"sim.dispatch_ms_per_op", "ms"},
	{"sim.steps_per_op", "count"},
	{"sim.msgs_per_op", "count"},
	{"sim.virt_p50_ms", "ms"},
	{"sim.virt_p99_ms", "ms"},
	{"transport.frames_per_op", "count"},
	{"transport.bytes_per_op", "bytes"},
	{"transport.frames_per_flush", "count"},
	{"transport.queue_drops", "count"},
	{"rtfs.call_ms", "ms"},
	{"rtfs.wait_ms_per_op", "ms"},
	{"telemetry.trace_overhead_ms_per_op", "ms"},
	{"gort.alloc_kb_per_op", "KB"},
	{"gort.gc_cycles_per_kop", "count"},
	{"gort.gc_cpu_ms_per_op", "ms"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	// The simulated workloads run on this goroutine; pinning it to one
	// OS thread makes that thread's CPU clock the simulator's.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "fs-tcp, kv-paxos or dn-fleet")
	seed := fl.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fl.Float64("seconds", 30, "measure whole cycles until this many seconds have passed")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics from traced cycles")
	spans := fl.String("spans", ".bench_build/perfbench", "directory for the traced run's span file")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or trace %d\n", *name, *trace)
		return 2
	}
	traced := *trace == 1
	spanPath := filepath.Join(*spans, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
	pool, err := newLatencyPool(1 << 20)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cycles, err := runCycles(wl, *name, *seed, *seconds, traced, spanPath, pool, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, cy := range cycles {
		res.Attempted += cy.ops
		res.Failed += cy.failed
		if cy.check != nil {
			res.Correct = false
			fmt.Fprintf(stdout, "INCORRECT: %v\n", cy.check)
		}
	}
	vals := endToEndValues(cycles, pool, stdout)
	defs := endToEnd
	if traced {
		vals = perLayerValues(cycles)
		for k, x := range loadValues(plain(cycles), pool) {
			vals[k] = x
		}
		defs = perLayer
		for _, d := range perLayer {
			fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", d.name, vals[d.name], d.unit)
		}
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	fmt.Fprintf(stdout, "seed %d: %d operations attempted, %d failed, correct=%v\n",
		*seed, res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runCycles repeats whole cycles until seconds have passed. A traced
// run alternates plain and traced cycles and has at least one of each;
// the first traced cycle's spans go to spanPath. Each cycle is reduced
// to its figures as soon as it ends, so nothing of it stays live into
// the next cycle's heap.
func runCycles(wl workload, name string, seed int64, seconds float64, traced bool, spanPath string, pool *latencyPool, log io.Writer) ([]*cycle, error) {
	start := time.Now()
	var cycles []*cycle
	for i := 0; ; i++ {
		done := time.Since(start).Seconds() >= seconds
		if i > 0 && done && (!traced || i >= 2) {
			return cycles, nil
		}
		var l *layers
		if traced && i%2 == 1 {
			keep := 0
			if i == 1 {
				keep = maxSpans
			}
			l = newLayers(fmt.Sprintf("%s-seed%d-cycle%d", name, seed, i), start, keep)
		}
		// Start every cycle from a collected heap, so one cycle's
		// garbage is not charged to the next one's set-up.
		runtime.GC()
		cy, err := wl(seed, l)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i, err)
		}
		cy.traced = l != nil
		kind := "plain"
		if l != nil {
			kind = "traced"
			if n := len(l.spans); n > 0 {
				if err := writeSpans(spanPath, l); err != nil {
					return nil, fmt.Errorf("writing spans: %w", err)
				}
				fmt.Fprintf(log, "spans: %d of cycle %d written to %s, %d more counted but not kept\n",
					n, i, spanPath, l.drop)
				fmt.Fprintf(log, "top rules of cycle %d:\n", i)
				for _, r := range l.topRules(8) {
					fmt.Fprintf(log, "  %s\n", r)
				}
			}
		}
		if !cy.traced {
			pool.add(cy.lat)
		}
		cy.lat, cy.obs = nil, nil
		if i > 0 {
			cy.virtMS = nil // every cycle's virtual latencies are the same
		}
		fmt.Fprintf(log, "cycle %d %-6s setup cpu %.3fs wall %.3fs  %d ops %d failed  ms/op: cpu %.4f thread %.4f wall %.4f  heap %.1f MB\n",
			i, kind, cy.setupS, cy.setupWallS, cy.ops, cy.failed, cy.ph.cpuMS/float64(cy.ops),
			cy.ph.thrMS/float64(cy.ops), cy.ph.wallS*1000/float64(cy.ops), cy.heapB/1e6)
		cycles = append(cycles, cy)
	}
}

func plain(cycles []*cycle) []*cycle {
	var out []*cycle
	for _, cy := range cycles {
		if !cy.traced {
			out = append(out, cy)
		}
	}
	return out
}

func medianOf(cycles []*cycle, f func(*cycle) float64) float64 {
	xs := make([]float64, 0, len(cycles))
	for _, cy := range cycles {
		xs = append(xs, f(cy))
	}
	return median(xs)
}

func cpuPerOp(cy *cycle) float64 { return cy.ph.cpuMS / float64(cy.ops) }

// endToEndValues summarises the plain cycles as medians over cycles,
// and the latency median over the operations of every plain cycle. It
// prints them beside the load figures kept as layer metrics.
func endToEndValues(cycles []*cycle, pool *latencyPool, log io.Writer) map[string]float64 {
	ps := plain(cycles)
	v := map[string]float64{
		"setup_s":       medianOf(ps, func(cy *cycle) float64 { return cy.setupS }),
		"cpu_ms_per_op": medianOf(ps, cpuPerOp),
		"live_heap_mb":  medianOf(ps, func(cy *cycle) float64 { return cy.heapB / 1e6 }),
		"op_p50_ms":     percentile(pool.buf, 50),
	}
	load := loadValues(ps, pool)
	var samples int64
	for _, x := range pool.buf {
		samples += x.n
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // reporting only
	fmt.Fprintf(log, "%d plain cycles, max RSS %.0f MB; op latency over %d operations (%d calls or rounds, %d lost)\n",
		len(ps), float64(ru.Maxrss)/1e3, samples, len(pool.buf), pool.lost)
	for _, d := range endToEnd {
		fmt.Fprintf(log, "  %-16s %12.4f %s\n", d.name, v[d.name], d.unit)
	}
	fmt.Fprintf(log, "  %-16s %12.4f s (wall)\n", "setup", medianOf(ps, func(cy *cycle) float64 { return cy.setupWallS }))
	for _, k := range []string{"load.ops_per_s", "load.op_p99_ms"} {
		fmt.Fprintf(log, "  %-16s %12.4f\n", k, load[k])
	}
	if virt := cycles[0].virtMS; len(virt) > 0 {
		fmt.Fprintf(log, "  virt_p50_ms      %12.4f ms (virtual clock, %d puts)\n  virt_p99_ms      %12.4f ms\n",
			groupedPercentile(virt, 50), len(virt), groupedPercentile(virt, 99))
	}
	return v
}

// loadValues are the load generator's rate and latency tail, over the
// plain cycles: steady enough to watch, not to bound (see README.md).
func loadValues(ps []*cycle, pool *latencyPool) map[string]float64 {
	return map[string]float64{
		"load.ops_per_s": medianOf(ps, func(cy *cycle) float64 { return float64(cy.ops) / cy.rateS }),
		"load.op_p99_ms": percentile(pool.buf, 99),
	}
}

// perLayerValues takes each layer metric's median over the traced
// cycles; the Go runtime, install and heap figures, and the baseline of
// the tracing overhead, come from the plain cycles.
func perLayerValues(cycles []*cycle) map[string]float64 {
	ps := plain(cycles)
	var tr []*cycle
	for _, cy := range cycles {
		if cy.traced {
			tr = append(tr, cy)
		}
	}
	v := map[string]float64{}
	for k := range tr[0].layerVals {
		v[k] = medianOf(tr, func(cy *cycle) float64 { return cy.layerVals[k] })
	}
	virt := cycles[0].virtMS
	v["sim.virt_p50_ms"] = groupedPercentile(virt, 50)
	v["sim.virt_p99_ms"] = groupedPercentile(virt, 99)
	v["overlog.install_ms_per_node"] = medianOf(ps, func(cy *cycle) float64 { return cy.installMS / float64(cy.nodes) })
	v["overlog.heap_kb_per_node"] = medianOf(ps, func(cy *cycle) float64 { return cy.heapB / 1e3 / float64(cy.nodes) })
	v["overlog.built_heap_kb_per_node"] = medianOf(tr, func(cy *cycle) float64 { return cy.builtHeapB / 1e3 / float64(cy.nodes) })
	v["gort.alloc_kb_per_op"] = medianOf(ps, func(cy *cycle) float64 { return cy.ph.gort.allocBytes / 1e3 / float64(cy.ops) })
	v["gort.gc_cycles_per_kop"] = medianOf(ps, func(cy *cycle) float64 { return cy.ph.gort.gcCycles * 1e3 / float64(cy.ops) })
	v["gort.gc_cpu_ms_per_op"] = medianOf(ps, func(cy *cycle) float64 { return cy.ph.gort.gcCPUSec * 1e3 / float64(cy.ops) })
	v["telemetry.trace_overhead_ms_per_op"] = medianOf(tr, cpuPerOp) - medianOf(ps, cpuPerOp)
	return v
}
