package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/overlog"
	"repro/internal/sim"
)

// cpuNow is the process's user+system CPU time: every goroutine of the
// deployment, the load it serves, and the Go runtime's GC workers.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the CPU time of the calling OS thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3 /* CLOCK_THREAD_CPUTIME_ID */, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}

// gortSample is a reading of the Go runtime counters the gort.* layer
// metrics are deltas of.
type gortSample struct {
	allocBytes float64
	gcCycles   float64
	gcCPUSec   float64
}

var gortNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readGort() gortSample {
	s := make([]metrics.Sample, len(gortNames))
	for i, n := range gortNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return gortSample{allocBytes: v(0), gcCycles: v(1), gcCPUSec: v(2)}
}

func (a gortSample) sub(b gortSample) gortSample {
	return gortSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPUSec - b.gcCPUSec}
}

// liveHeapBytes forces a collection and returns the heap the collector
// found live. The caller keeps its deployment reachable across the call.
func liveHeapBytes() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// setupWatch times a deployment's set-up in wall and process CPU time.
type setupWatch struct {
	wall time.Time
	cpu  time.Duration
}

func startSetup() setupWatch { return setupWatch{time.Now(), cpuNow()} }

// stop records the set-up's CPU time (setup_s) and wall time in cy.
func (w setupWatch) stop(cy *cycle) {
	cy.setupS = (cpuNow() - w.cpu).Seconds()
	cy.setupWallS = time.Since(w.wall).Seconds()
}

// phase brackets a measured phase: wall time, process and thread CPU,
// and the Go runtime counters.
type phase struct {
	wall0 time.Time
	cpu0  time.Duration
	thr0  time.Duration
	gort0 gortSample

	wallS float64
	cpuMS float64 // process CPU
	thrMS float64 // CPU of the calling thread (the simulator's)
	gort  gortSample
}

func startPhase() *phase {
	return &phase{wall0: time.Now(), cpu0: cpuNow(), thr0: threadCPU(), gort0: readGort()}
}

func (p *phase) stop() {
	p.wallS = time.Since(p.wall0).Seconds()
	p.cpuMS = float64(cpuNow()-p.cpu0) / 1e6
	p.thrMS = float64(threadCPU()-p.thr0) / 1e6
	p.gort = readGort().sub(p.gort0)
}

// cycle is one whole deployment: built, loaded, measured, checked and
// torn down. Every cycle of a run performs the same operations.
type cycle struct {
	traced bool

	setupS     float64 // process CPU time to build the deployment, preload included
	setupWallS float64 // the same in wall time
	installMS  float64 // wall time inside the program's constructors
	nodes      int     // Overlog runtimes in the deployment

	ops    int64 // operations attempted in the measured phase
	failed int64 // operations that returned an error
	ph     *phase
	// rateS is the time load.ops_per_s divides by: the measured
	// phase's wall time on fs-tcp, the simulator thread's CPU time on
	// the simulated workloads.
	rateS  float64
	lat    []latency // latency of the completed operations
	virtMS []int64   // virtual-clock latency of each operation (sims)
	heapB  float64   // live heap at the end, deployment reachable
	// builtHeapB is the live heap right after the constructors, taken
	// in traced cycles only (its forced collection would count in
	// set-up time).
	builtHeapB float64

	layerVals map[string]float64 // per-layer metrics of a traced cycle
	obs       checker            // the answers the correctness check read
	check     error              // first correctness violation, nil when correct
}

// checker is a workload's record of the program's answers; check
// compares them with the model the benchmark kept.
type checker interface{ check() error }

// latency is the wall latency shared by n operations that completed
// together (n is 1 unless a whole round completes in one call).
type latency struct {
	ms float64
	n  int64
}

// latencyPool keeps every cycle's latencies outside the Go heap, so
// pooling them over a run leaves the heap each cycle measures alone.
type latencyPool struct {
	buf  []latency
	lost int64 // samples that did not fit
}

func newLatencyPool(capacity int) (*latencyPool, error) {
	size := capacity * int(unsafe.Sizeof(latency{}))
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("latency pool: %w", err)
	}
	return &latencyPool{buf: unsafe.Slice((*latency)(unsafe.Pointer(&b[0])), capacity)[:0]}, nil
}

func (p *latencyPool) add(xs []latency) {
	for _, x := range xs {
		if len(p.buf) == cap(p.buf) {
			p.lost++
			continue
		}
		p.buf = append(p.buf, x)
	}
}

// percentile is the nearest-rank percentile over every operation in xs
// (sorted in place).
func percentile(xs []latency, p float64) float64 {
	var total int64
	for _, x := range xs {
		total += x.n
	}
	if total == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].ms < xs[j].ms })
	rank := int64(math.Ceil(p / 100 * float64(total)))
	var seen int64
	for _, x := range xs {
		seen += x.n
		if seen >= rank {
			return x.ms
		}
	}
	return xs[len(xs)-1].ms
}

// groupedPercentile estimates a percentile of latencies recorded on a
// whole-millisecond clock: each value v stands for the interval
// [v-0.5, v+0.5), and the percentile is interpolated inside its
// interval, as for grouped data.
func groupedPercentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	target := p / 100 * float64(len(s))
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] {
			j++
		}
		if float64(j) >= target {
			return float64(s[i]) - 0.5 + (target-float64(i))/float64(j-i)
		}
		i = j
	}
	return float64(s[len(s)-1]) + 0.5
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// span is one timed call across a layer boundary, recorded by the
// benchmark around calls into the program. Spans of one cycle share a
// trace ID; Parent names the span that caused this one.
type span struct {
	Trace   string `json:"trace"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxSpans bounds the spans a run keeps in memory for the span file;
// layer totals keep accumulating past it.
const maxSpans = 100_000

// layers accumulates one traced cycle's per-layer totals and spans.
// Self time of a layer is its spans' total minus the time their child
// spans cover; children are recorded by the same code that records the
// parent, so the cover is the sum of child durations.
type layers struct {
	mu     sync.Mutex
	epoch  time.Time
	trace  string
	nextID int64
	spans  []span
	drop   int64
	keep   int              // spans kept for the span file
	cur    int64            // open "run" span (simulated workloads)
	busyNS map[string]int64 // total span time per layer
	kidNS  map[string]int64 // time covered by child spans per layer
	ruleNS map[string]int64 // rule time per program/rule

	// Overlog step statistics, summed over every hooked runtime.
	steps, derived, inserted, retracted int64
	stepNS                              int64
	stored                              map[*overlog.Runtime]int64
}

func newLayers(trace string, epoch time.Time, keep int) *layers {
	return &layers{epoch: epoch, trace: trace, keep: keep, busyNS: map[string]int64{},
		kidNS: map[string]int64{}, ruleNS: map[string]int64{}, stored: map[*overlog.Runtime]int64{}}
}

// record adds a finished span and returns its ID. parentLayer names
// the layer whose self time the span's duration comes out of ("" for
// a root span).
func (l *layers) record(layer, name string, parent int64, parentLayer string, start, end time.Time) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	id := l.nextID
	d := end.Sub(start).Nanoseconds()
	l.busyNS[layer] += d
	if parentLayer != "" {
		l.kidNS[parentLayer] += d
	}
	if len(l.spans) < l.keep {
		l.spans = append(l.spans, span{Trace: l.trace, ID: id, Parent: parent, Layer: layer,
			Name: name, StartNS: start.Sub(l.epoch).Nanoseconds(), EndNS: end.Sub(l.epoch).Nanoseconds()})
	} else {
		l.drop++
	}
	return id
}

// reserve allocates a span ID for a parent recorded after its
// children.
func (l *layers) reserve() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return l.nextID
}

// recordAs is record for a span whose ID was reserved.
func (l *layers) recordAs(id int64, layer, name string, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.busyNS[layer] += end.Sub(start).Nanoseconds()
	if len(l.spans) < l.keep {
		l.spans = append(l.spans, span{Trace: l.trace, ID: id, Layer: layer, Name: name,
			StartNS: start.Sub(l.epoch).Nanoseconds(), EndNS: end.Sub(l.epoch).Nanoseconds()})
	} else {
		l.drop++
	}
}

// topRules lists the n rules with the most profiled time.
func (l *layers) topRules(n int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	names := make([]string, 0, len(l.ruleNS))
	for k, v := range l.ruleNS {
		names = append(names, k)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return l.ruleNS[names[i]] > l.ruleNS[names[j]] })
	if len(names) > n {
		names = names[:n]
	}
	out := make([]string, len(names))
	for i, k := range names {
		out[i] = fmt.Sprintf("%-28s %9.1f ms %5.1f%% of rule time", k, float64(l.ruleNS[k])/1e6,
			100*float64(l.ruleNS[k])/float64(total))
	}
	return out
}

func (l *layers) selfMS(layer string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return float64(l.busyNS[layer]-l.kidNS[layer]) / 1e6
}

func (l *layers) busyMS(layer string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return float64(l.busyNS[layer]) / 1e6
}

// ruleSnap remembers a runtime's cumulative rule profile, so the next
// step's per-rule time and firings are the difference.
type ruleSnap struct {
	wall  []int64
	fires []int64
}

// hookRuntime turns on the rule profiler and a step hook on rt. Each
// step becomes a "node" span under the open "run" span (a root span
// when no Cluster.Run is open, as on the live transport), and each rule
// that ran in it a "rule" span under the step. The hook runs inside the
// runtime's Step, so it only reads the runtime's counters.
func (l *layers) hookRuntime(rt *overlog.Runtime, node string) {
	rt.SetProfiling(true)
	snap := &ruleSnap{}
	rt.AddStepHook(func(st overlog.StepStats) {
		end := time.Now()
		start := end.Add(-time.Duration(st.DurationNS))
		l.mu.Lock()
		l.steps++
		l.derived += st.Derived
		l.inserted += st.Inserted
		l.retracted += st.Retracted
		l.stepNS += st.DurationNS
		l.stored[rt] = st.Stored
		l.mu.Unlock()
		parent, parentLayer := l.cur, "run"
		if parent == 0 {
			parentLayer = ""
		}
		stepID := l.record("node", node, parent, parentLayer, start, end)
		profs := rt.RuleProfiles()
		for len(snap.wall) < len(profs) {
			snap.wall = append(snap.wall, 0)
			snap.fires = append(snap.fires, 0)
		}
		at := start
		for i, p := range profs {
			dw := p.WallNS - snap.wall[i]
			if dw > 0 || p.Fires != snap.fires[i] {
				next := at.Add(time.Duration(dw))
				name := p.Program + "/" + p.Rule
				l.record("rule", name, stepID, "node", at, next)
				l.mu.Lock()
				l.ruleNS[name] += dw
				l.mu.Unlock()
				at = next
			}
			snap.wall[i], snap.fires[i] = p.WallNS, p.Fires
		}
	})
}

// ruleTotals sums rule wall time (ms) and firings per program group:
// the program name up to its first '_' (boomfs_master -> boomfs).
func ruleTotals(rts []*overlog.Runtime) (ms, fires map[string]float64) {
	ms, fires = map[string]float64{}, map[string]float64{}
	for _, rt := range rts {
		for _, p := range rt.RuleProfiles() {
			g := p.Program
			if i := strings.IndexByte(g, '_'); i > 0 {
				g = g[:i]
			}
			ms[g] += float64(p.WallNS) / 1e6
			fires[g] += float64(p.Fires)
		}
	}
	return ms, fires
}

func subTotals(a, b map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// writeSpans writes a traced cycle's kept spans as JSON lines and
// releases them.
func writeSpans(path string, l *layers) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	l.spans = nil
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// runSlice advances the simulation to until with one Cluster.Run call,
// recorded as a "run" span that the node steps inside it hang from.
func runSlice(c *sim.Cluster, l *layers, until int64) error {
	if l == nil {
		return c.Run(until)
	}
	id := l.reserve()
	l.cur = id
	start := time.Now()
	err := c.Run(until)
	l.recordAs(id, "run", "Cluster.Run", start, time.Now())
	l.cur = 0
	return err
}

// overlogMetrics turns the hooked runtimes' step statistics into the
// overlog.* layer metrics.
func (l *layers) overlogMetrics(ops float64) map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var stored int64
	for _, v := range l.stored {
		stored += v
	}
	return map[string]float64{
		"overlog.step_ms_per_op":   float64(l.stepNS) / 1e6 / ops,
		"overlog.steps_per_op":     float64(l.steps) / ops,
		"overlog.derived_per_op":   float64(l.derived) / ops,
		"overlog.inserted_per_op":  float64(l.inserted) / ops,
		"overlog.retracted_per_op": float64(l.retracted) / ops,
		"overlog.stored_tuples":    float64(stored),
	}
}

// simMetrics adds the simulator's layer metrics: Cluster.Run time, the
// part of it outside node steps (dispatch), scheduler steps and
// delivered messages.
func simMetrics(m map[string]float64, l *layers, c *sim.Cluster, steps0, msgs0 int64, ops float64) {
	m["sim.run_ms_per_op"] = l.busyMS("run") / ops
	m["sim.dispatch_ms_per_op"] = l.selfMS("run") / ops
	m["sim.steps_per_op"] = float64(c.Steps()-steps0) / ops
	m["sim.msgs_per_op"] = float64(c.DeliveredTotal()-msgs0) / ops
}
