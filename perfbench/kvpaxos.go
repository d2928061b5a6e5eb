package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/kvstore"
	"repro/internal/loadgen"
	"repro/internal/overlog"
	"repro/internal/paxos"
	"repro/internal/sim"
)

// kvParams sizes one kv-paxos cycle.
type kvParams struct {
	preload     int64   // committed puts loaded during set-up
	puts        int64   // puts in the measured phase
	keys        int     // key space
	rate        float64 // measured Poisson put rate (1/virtual s)
	preloadRate float64
}

// kvFull carries the log to 1000 slots: the Paxos cleanup rules rescan
// the whole decided log every step, so the per-put cost depends on the
// log length and has to be the same in every cycle.
var kvFull = kvParams{preload: 500, puts: 500, keys: 64, rate: 50, preloadRate: 200}

// kvSliceMS is the virtual length of one Cluster.Run call while a put
// stream runs.
const kvSliceMS = 100

// kvPut is one issued put.
type kvPut struct {
	key, value string
	dueMS      int64         // virtual instant the put was due (and issued)
	dueCPU     time.Duration // simulator thread's CPU clock when it was due
	done       bool
}

// kvObservation is what the deployment answered, laid out for check.
type kvObservation struct {
	puts     map[string]*kvPut   // by request ID
	decided  [][]overlog.Value   // per replica: every decided command
	values   []map[string]string // per replica: the kv table
	issued   int64
	unfinish int64
}

func runKV(p kvParams, seed int64, l *layers) (*cycle, error) {
	cy := &cycle{nodes: 4}
	setup := startSetup()
	c := sim.NewCluster(sim.WithClusterSeed(seed))
	i0 := time.Now()
	g, err := kvstore.NewGroup(c, "kv", 3, paxos.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cl, err := kvstore.NewClient(c, "kvc:0", g)
	if err != nil {
		return nil, err
	}
	cy.installMS = msSince(i0)
	if l != nil {
		cy.builtHeapB = liveHeapBytes()
	}

	obs := &kvObservation{puts: map[string]*kvPut{}}
	var gen *loadgen.Generator
	var measuring bool
	rt := cl.Runtime()
	if err := rt.AddWatch("kvr", "i"); err != nil {
		return nil, err
	}
	rt.RegisterWatcher(func(ev overlog.WatchEvent) {
		if !ev.Insert || ev.Tuple.Table != "kvr" {
			return
		}
		id := ev.Tuple.Vals[0].AsString()
		if put, ok := obs.puts[id]; ok && !put.done {
			put.done = true
			if measuring {
				cy.lat = append(cy.lat, latency{float64(threadCPU()-put.dueCPU) / 1e6, 1})
				cy.virtMS = append(cy.virtMS, ev.Time-put.dueMS)
			}
		}
		if gen != nil {
			gen.Complete(id, ev.Time)
		}
	})
	// A synchronous put completes leader election before any load.
	if err := cl.Put("warmup", "1"); err != nil {
		return nil, fmt.Errorf("kv-paxos: warm-up put: %w", err)
	}
	obs.issued = 1

	rng := rand.New(rand.NewSource(seed))
	issue := func(int64) (string, error) {
		obs.issued++
		put := &kvPut{key: fmt.Sprintf("k%03d", rng.Intn(p.keys)), value: fmt.Sprintf("v%d", obs.issued),
			dueMS: c.Now(), dueCPU: threadCPU()}
		id := cl.SendPut(put.key, put.value)
		obs.puts[id] = put
		return id, nil
	}
	stream := func(rate float64, n int64, genSeed int64, lay *layers) error {
		gen = loadgen.NewGenerator(c, loadgen.Poisson(rate), genSeed, n, 30_000, issue)
		gen.Start(c.Now() + 1)
		limit := c.Now() + int64(float64(n)/rate*1000) + 60_000
		for !gen.Done() {
			if c.Now() > limit {
				return nil
			}
			if err := runSlice(c, lay, c.Now()+kvSliceMS); err != nil {
				return err
			}
		}
		return nil
	}
	if err := stream(p.preloadRate, p.preload, seed+1, nil); err != nil {
		return nil, err
	}
	setup.stop(cy)

	var rules0 map[string]float64
	var fires0 map[string]float64
	if l != nil {
		for _, addr := range c.Nodes() {
			l.hookRuntime(c.Node(addr), addr)
		}
		rules0, fires0 = ruleTotals(c.Runtimes())
	}
	steps0, msgs0 := c.Steps(), c.DeliveredTotal()
	measuring = true
	cy.ph = startPhase()
	err = stream(p.rate, p.puts, seed+2, l)
	cy.ph.stop()
	cy.rateS = cy.ph.thrMS / 1e3
	measuring = false
	if err != nil {
		return nil, err
	}
	cy.ops = p.puts
	for _, put := range obs.puts {
		if !put.done {
			obs.unfinish++
		}
	}
	cy.failed = obs.unfinish
	if l != nil {
		rules1, fires1 := ruleTotals(c.Runtimes())
		ms, fires := subTotals(rules1, rules0), subTotals(fires1, fires0)
		m := l.overlogMetrics(float64(cy.ops))
		m["paxos.rule_ms_per_op"] = ms["paxos"] / float64(cy.ops)
		m["paxos.fires_per_op"] = fires["paxos"] / float64(cy.ops)
		m["kvstore.rule_ms_per_op"] = ms["kvstore"] / float64(cy.ops)
		simMetrics(m, l, c, steps0, msgs0, float64(cy.ops))
		cy.layerVals = m
	}

	// Followers learn decisions asynchronously; give them the learner
	// sync period to catch up before reading every replica.
	total := obs.issued
	if _, err := c.RunUntil(func() bool {
		for _, addr := range g.Replicas {
			if int64(c.Node(addr).Table("decided").Len()) < total {
				return false
			}
		}
		return true
	}, c.Now()+5*paxos.DefaultConfig().SyncMS); err != nil {
		return nil, err
	}
	for _, addr := range g.Replicas {
		var cmds []overlog.Value
		for _, cmd := range paxos.Decided(c.Node(addr)) {
			cmds = append(cmds, overlog.List(cmd...))
		}
		obs.decided = append(obs.decided, cmds)
		vals := map[string]string{}
		c.Node(addr).Table("kv").Scan(func(tp overlog.Tuple) bool {
			vals[tp.Vals[0].AsString()] = tp.Vals[1].AsString()
			return true
		})
		obs.values = append(obs.values, vals)
	}
	cy.obs, cy.check = obs, obs.check()
	cy.heapB = liveHeapBytes()
	runtime.KeepAlive(c)
	return cy, nil
}

// check compares every replica against the put history kept by the
// benchmark: all replicas agree on every key, each value is one that
// was put to that key, and the decided log holds every issued put
// exactly once.
func (o *kvObservation) check() error {
	putTo := map[string]map[string]bool{"warmup": {"1": true}}
	for _, put := range o.puts {
		if putTo[put.key] == nil {
			putTo[put.key] = map[string]bool{}
		}
		putTo[put.key][put.value] = true
	}
	for r, cmds := range o.decided {
		if int64(len(cmds)) != o.issued {
			return fmt.Errorf("replica %d decided %d slots, %d puts were issued", r, len(cmds), o.issued)
		}
		seen := map[string]bool{}
		for _, cmd := range cmds {
			l := cmd.AsList()
			id := l[0].AsString()
			if seen[id] {
				return fmt.Errorf("replica %d decided request %s twice", r, id)
			}
			seen[id] = true
			if _, ok := o.puts[id]; !ok && !isWarmup(l) {
				return fmt.Errorf("replica %d decided request %s that was never issued", r, id)
			}
		}
	}
	keys := make([]string, 0, len(putTo))
	for k := range putTo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for r, vals := range o.values {
		if len(vals) != len(putTo) {
			return fmt.Errorf("replica %d holds %d keys, %d were put", r, len(vals), len(putTo))
		}
		for _, k := range keys {
			v, ok := vals[k]
			if !ok {
				return fmt.Errorf("replica %d lacks key %s", r, k)
			}
			if !putTo[k][v] {
				return fmt.Errorf("replica %d holds %s=%s, never put to that key", r, k, v)
			}
			if v != o.values[0][k] {
				return fmt.Errorf("replicas disagree on %s: %s vs %s", k, o.values[0][k], v)
			}
		}
	}
	return nil
}

// isWarmup recognises the synchronous warm-up put, whose request ID
// the benchmark does not see.
func isWarmup(cmd []overlog.Value) bool {
	return len(cmd) == 5 && cmd[3].AsString() == "warmup"
}
