package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/boomfs"
	"repro/internal/sim"
)

// dnParams sizes one dn-fleet cycle.
type dnParams struct {
	nodes  int
	spanMS int64 // virtual length of the measured phase
}

var dnFull = dnParams{nodes: 1000, spanMS: 20_000}

// dnObservation is what the master reported, laid out for check.
type dnObservation struct {
	fleet     []string // datanodes built
	live      []string // master's live set at the end
	delivered int64    // dn_alive delivered in the measured phase
	expected  int64    // nodes x heartbeat periods, from the config
}

// runDN builds a master and a synchronised fleet of datanodes on the
// default heartbeat config. Every node heartbeats at each multiple of
// HeartbeatMS and the master absorbs the round one millisecond later,
// so one round is two Cluster.Run calls.
func runDN(p dnParams, seed int64, l *layers) (*cycle, error) {
	cy := &cycle{nodes: p.nodes + 1}
	cfg := boomfs.DefaultConfig()
	setup := startSetup()
	t0 := time.Now()
	c := sim.NewCluster(sim.WithClusterSeed(seed))
	m, err := boomfs.NewMaster(c, "master", cfg)
	if err != nil {
		return nil, err
	}
	obs := &dnObservation{}
	for i := 0; i < p.nodes; i++ {
		addr := fmt.Sprintf("dn:%04d", i)
		if _, err := boomfs.NewDataNode(c, addr, "master", cfg); err != nil {
			return nil, err
		}
		obs.fleet = append(obs.fleet, addr)
	}
	cy.installMS = msSince(t0)
	if l != nil {
		cy.builtHeapB = liveHeapBytes()
	}
	// Warm-up: the first round (heartbeats at t=0) reaches the master.
	if err := c.Run(1); err != nil {
		return nil, err
	}
	setup.stop(cy)

	var rules0, fires0 map[string]float64
	if l != nil {
		for _, addr := range c.Nodes() {
			l.hookRuntime(c.Node(addr), addr)
		}
		rules0, fires0 = ruleTotals(c.Runtimes())
	}
	steps0, msgs0, alive0 := c.Steps(), c.DeliveredTotal(), c.Delivered["dn_alive"]
	periods := p.spanMS / cfg.HeartbeatMS
	cy.ph = startPhase()
	for k := int64(1); k <= periods; k++ {
		due := k * cfg.HeartbeatMS
		start := threadCPU()
		before := c.Delivered["dn_alive"]
		if err := runSlice(c, l, due); err != nil {
			return nil, err
		}
		if err := runSlice(c, l, due+1); err != nil {
			return nil, err
		}
		cy.lat = append(cy.lat, latency{float64(threadCPU()-start) / 1e6, c.Delivered["dn_alive"] - before})
	}
	cy.ph.stop()
	cy.rateS = cy.ph.thrMS / 1e3
	obs.delivered = c.Delivered["dn_alive"] - alive0
	obs.expected = int64(p.nodes) * periods
	cy.ops = obs.expected
	if obs.delivered < obs.expected {
		cy.failed = obs.expected - obs.delivered
	}
	if l != nil {
		rules1, fires1 := ruleTotals(c.Runtimes())
		ms, fires := subTotals(rules1, rules0), subTotals(fires1, fires0)
		ops := float64(cy.ops)
		vals := l.overlogMetrics(ops)
		vals["boomfs.rule_ms_per_op"] = ms["boomfs"] / ops
		vals["boomfs.fires_per_op"] = fires["boomfs"] / ops
		simMetrics(vals, l, c, steps0, msgs0, ops)
		cy.layerVals = vals
	}
	obs.live = m.LiveDataNodes()
	cy.obs, cy.check = obs, obs.check()
	cy.heapB = liveHeapBytes()
	runtime.KeepAlive(c)
	return cy, nil
}

// check compares the master's view with the fleet the benchmark built
// and the heartbeat count the config implies.
func (o *dnObservation) check() error {
	if o.delivered != o.expected {
		return fmt.Errorf("master got %d heartbeats, config implies %d", o.delivered, o.expected)
	}
	live := append([]string(nil), o.live...)
	sort.Strings(live)
	if len(live) != len(o.fleet) {
		return fmt.Errorf("master sees %d live datanodes, %d were built", len(live), len(o.fleet))
	}
	for i := range live {
		if live[i] != o.fleet[i] {
			return fmt.Errorf("master's live set has %s where the fleet has %s", live[i], o.fleet[i])
		}
	}
	return nil
}
