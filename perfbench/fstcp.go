package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/boomfs"
	"repro/internal/loadgen"
	"repro/internal/overlog"
	"repro/internal/rtfs"
	"repro/internal/telemetry"
)

// fsParams sizes one fs-tcp cycle.
type fsParams struct {
	clients int // closed-loop clients, each in its own directory
	preload int // files each client creates during set-up
	ops     int // measured operations per client
}

// fsFull uses one client per CPU, up to four.
var fsFull = fsParams{clients: min(runtime.NumCPU(), 4), preload: 200, ops: 1000}

const fsCallTimeout = 10 * time.Second

// fsModel is one client's own record of its directory: the paths it
// created, moved and removed.
type fsModel struct {
	dir    string
	live   []string
	isLive map[string]bool
	gone   []string // paths that existed and no longer do
	next   int
	// unsure holds paths a failed mutation left in an unknown state;
	// they are never looked up and the listing check skips them.
	unsure map[string]bool
}

func newFSModel(dir string) *fsModel {
	return &fsModel{dir: dir, isLive: map[string]bool{}, unsure: map[string]bool{}}
}

func (m *fsModel) fresh(prefix string) string {
	m.next++
	return fmt.Sprintf("%s/%s%06d", m.dir, prefix, m.next)
}

func (m *fsModel) add(p string) {
	m.live = append(m.live, p)
	m.isLive[p] = true
}

// remove takes live path i out of the model. A path known to be gone
// joins the sample of negative lookups; one a failed call left in an
// unknown state becomes unsure.
func (m *fsModel) remove(i int, known bool) {
	p := m.live[i]
	m.live[i] = m.live[len(m.live)-1]
	m.live = m.live[:len(m.live)-1]
	delete(m.isLive, p)
	switch {
	case !known:
		m.unsure[p] = true
	case len(m.gone) < 256:
		m.gone = append(m.gone, p)
	default:
		m.gone[m.next%len(m.gone)] = p
	}
}

// checkExists compares an Exists answer with the model.
func (m *fsModel) checkExists(p string, got bool) error {
	if want := m.isLive[p]; got != want && !m.unsure[p] {
		return fmt.Errorf("exists %s = %v, model says %v", p, got, want)
	}
	return nil
}

// checkLs compares a directory listing (names relative to the
// directory) with the model.
func (m *fsModel) checkLs(names []string) error {
	want := make([]string, 0, len(m.live))
	for _, p := range m.live {
		want = append(want, p[len(m.dir)+1:])
	}
	var got []string
	for _, n := range names {
		if !m.unsure[m.dir+"/"+n] {
			got = append(got, n)
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(got) != len(want) {
		return fmt.Errorf("ls %s: %d entries, model has %d", m.dir, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("ls %s: entry %q where the model has %q", m.dir, got[i], want[i])
		}
	}
	return nil
}

// fsClient is one closed-loop client with its own model and results.
type fsClient struct {
	cl     *rtfs.Client
	model  *fsModel
	rng    *rand.Rand
	lat    []latency
	callMS float64
	failed int64
	wrong  error // first wrong Exists answer
}

// fsObservation is what the deployment answered, laid out for check.
type fsObservation struct {
	models   []*fsModel
	listings [][]string // Ls of each client's directory at the end
	wrong    error      // first wrong Exists answer during the run
}

// check compares the answers with each client's own model: every
// Exists answered what the model says, and every directory lists
// exactly the model's live paths.
func (o *fsObservation) check() error {
	if o.wrong != nil {
		return o.wrong
	}
	for i, m := range o.models {
		if err := m.checkLs(o.listings[i]); err != nil {
			return err
		}
	}
	return nil
}

// call times one client call, records it as a "call" span in traced
// cycles, and counts an error as a failed operation.
func (c *fsClient) call(l *layers, name string, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	ms := float64(end.Sub(start).Nanoseconds()) / 1e6
	c.lat = append(c.lat, latency{ms, 1})
	c.callMS += ms
	if l != nil {
		l.record("call", name, 0, "", start, end)
	}
	if err != nil {
		c.failed++
	}
	return err
}

// step issues one operation of the loadgen.DefaultFSMix shares,
// chosen from the client's model.
func (c *fsClient) step(l *layers) {
	mix := loadgen.DefaultFSMix()
	m := c.model
	x := c.rng.Float64()
	switch {
	case x < mix.Create || len(m.live) == 0:
		p := m.fresh("f")
		if c.call(l, "create", func() error { return c.cl.Create(p) }) == nil {
			m.add(p)
		} else {
			m.unsure[p] = true
		}
	case x < mix.Create+mix.Read:
		// Three lookups in four ask for a live path, the rest for one
		// that is gone (or was never there).
		p := m.live[c.rng.Intn(len(m.live))]
		if c.rng.Intn(4) == 0 {
			if len(m.gone) > 0 {
				p = m.gone[c.rng.Intn(len(m.gone))]
			} else {
				p = m.dir + "/never"
			}
		}
		var got bool
		err := c.call(l, "exists", func() (err error) {
			got, err = c.cl.Exists(p)
			return err
		})
		if err == nil && c.wrong == nil {
			c.wrong = m.checkExists(p, got)
		}
	case x < mix.Create+mix.Read+mix.Mv:
		i := c.rng.Intn(len(m.live))
		old, np := m.live[i], m.fresh("m")
		err := c.call(l, "mv", func() error { return c.cl.Mv(old, np) })
		m.remove(i, err == nil)
		if err == nil {
			m.add(np)
		} else {
			m.unsure[np] = true
		}
	default:
		i := c.rng.Intn(len(m.live))
		p := m.live[i]
		err := c.call(l, "rm", func() error { return c.cl.Rm(p) })
		m.remove(i, err == nil)
	}
}

// freeAddrs picks n distinct free localhost ports for node addresses:
// every listener stays open until all n are picked.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// regTotals sums the telemetry series the fs-tcp layer metrics read
// from the servers' and clients' always-on registries.
type regTotals struct {
	steps, derived, inserted, stored float64
	fixpointMS, masterFixpointMS     float64
	frames, bytes, flushes, drops    float64
}

func readRegs(master *telemetry.Registry, clients []*telemetry.Registry) regTotals {
	var t regTotals
	for i, r := range append([]*telemetry.Registry{master}, clients...) {
		t.steps += r.Get("boom_steps_total")
		t.derived += r.Get("boom_tuples_derived_total")
		t.inserted += r.Get("boom_tuples_inserted_total")
		t.stored += r.Get("boom_tuples_stored")
		fp := r.Histogram("boom_fixpoint_ms", "", nil).Sum()
		t.fixpointMS += fp
		if i == 0 {
			t.masterFixpointMS = fp
		}
		t.frames += r.Get("boom_transport_sent_total")
		t.bytes += r.Get("boom_transport_sent_bytes_total")
		t.flushes += r.Get("boom_transport_flushes_total")
		t.drops += r.Get("boom_transport_queue_drops_total")
	}
	return t
}

func runFS(p fsParams, seed int64, l *layers) (*cycle, error) {
	cy := &cycle{nodes: p.clients + 1}
	setup := startSetup()
	addrs, err := freeAddrs(p.clients + 1)
	if err != nil {
		return nil, err
	}
	masterAddr := addrs[0]
	i0 := time.Now()
	srv, err := rtfs.StartMaster(masterAddr, boomfs.DefaultConfig())
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	clients := make([]*fsClient, p.clients)
	var regs []*telemetry.Registry
	for i := range clients {
		cl, err := rtfs.NewClient(addrs[i+1], masterAddr, fsCallTimeout)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		clients[i] = &fsClient{cl: cl, model: newFSModel(fmt.Sprintf("/c%d", i)),
			rng: rand.New(rand.NewSource(seed*1000 + int64(i)))}
		regs = append(regs, cl.Reg)
	}
	cy.installMS = msSince(i0)
	if l != nil {
		cy.builtHeapB = liveHeapBytes()
	}

	each := func(fn func(i int, c *fsClient)) {
		var wg sync.WaitGroup
		wg.Add(len(clients))
		for i, c := range clients {
			i, c := i, c
			go func() {
				defer wg.Done()
				fn(i, c)
			}()
		}
		wg.Wait()
	}
	// Preload: each client makes its directory and its first files.
	preloadErr := make([]error, len(clients))
	each(func(i int, c *fsClient) {
		err := c.cl.Mkdir(c.model.dir)
		for i := 0; err == nil && i < p.preload; i++ {
			f := c.model.fresh("f")
			if err = c.cl.Create(f); err == nil {
				c.model.add(f)
			}
		}
		preloadErr[i] = err
	})
	for _, err := range preloadErr {
		if err != nil {
			return nil, fmt.Errorf("fs-tcp: preload: %w", err)
		}
	}
	setup.stop(cy)

	var rules0, fires0 map[string]float64
	if l != nil {
		srv.Node.Runtime(func(rt *overlog.Runtime) {
			l.hookRuntime(rt, "master")
			rules0, fires0 = ruleTotals([]*overlog.Runtime{rt})
		})
	}
	reg0 := readRegs(srv.Reg, regs)
	cy.ph = startPhase()
	each(func(_ int, c *fsClient) {
		for i := 0; i < p.ops; i++ {
			c.step(l)
		}
	})
	cy.ph.stop()
	cy.rateS = cy.ph.wallS
	reg1 := readRegs(srv.Reg, regs)
	cy.ops = int64(p.clients * p.ops)
	var callMS float64
	for _, c := range clients {
		cy.failed += c.failed
		cy.lat = append(cy.lat, c.lat...)
		callMS += c.callMS
	}
	if l != nil {
		var rules1, fires1 map[string]float64
		srv.Node.Runtime(func(rt *overlog.Runtime) {
			rules1, fires1 = ruleTotals([]*overlog.Runtime{rt})
		})
		ms, fires := subTotals(rules1, rules0), subTotals(fires1, fires0)
		ops := float64(cy.ops)
		vals := l.overlogMetrics(ops)
		// Client runtimes are reachable only through their registries,
		// so the step counts and fixpoint time cover every runtime from
		// there; retractions are the master's alone.
		vals["overlog.step_ms_per_op"] = (reg1.fixpointMS - reg0.fixpointMS) / ops
		vals["overlog.steps_per_op"] = (reg1.steps - reg0.steps) / ops
		vals["overlog.derived_per_op"] = (reg1.derived - reg0.derived) / ops
		vals["overlog.inserted_per_op"] = (reg1.inserted - reg0.inserted) / ops
		vals["overlog.stored_tuples"] = reg1.stored
		vals["boomfs.rule_ms_per_op"] = ms["boomfs"] / ops
		vals["boomfs.fires_per_op"] = fires["boomfs"] / ops
		vals["transport.frames_per_op"] = (reg1.frames - reg0.frames) / ops
		vals["transport.bytes_per_op"] = (reg1.bytes - reg0.bytes) / ops
		if fl := reg1.flushes - reg0.flushes; fl > 0 {
			vals["transport.frames_per_flush"] = (reg1.frames - reg0.frames) / fl
		}
		vals["transport.queue_drops"] = reg1.drops - reg0.drops
		vals["rtfs.call_ms"] = callMS / ops
		vals["rtfs.wait_ms_per_op"] = (callMS - (reg1.masterFixpointMS - reg0.masterFixpointMS)) / ops
		cy.layerVals = vals
	}

	obs := &fsObservation{}
	for _, c := range clients {
		names, err := c.cl.Ls(c.model.dir)
		if err != nil {
			return nil, fmt.Errorf("fs-tcp: ls %s: %w", c.model.dir, err)
		}
		obs.models = append(obs.models, c.model)
		obs.listings = append(obs.listings, names)
		if obs.wrong == nil {
			obs.wrong = c.wrong
		}
	}
	cy.obs, cy.check = obs, obs.check()
	cy.heapB = liveHeapBytes()
	runtime.KeepAlive(srv)
	runtime.KeepAlive(clients)
	return cy, nil
}
