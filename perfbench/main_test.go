package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/overlog"
)

// Tiny sizes of each workload: the same code paths as the full runs.
var (
	fsTiny = fsParams{clients: 2, preload: 5, ops: 40}
	kvTiny = kvParams{preload: 10, puts: 30, keys: 4, rate: 50, preloadRate: 200}
	dnTiny = dnParams{nodes: 20, spanMS: 2000}
)

func tinyWorkloads() map[string]workload {
	return map[string]workload{
		"fs-tcp":   func(seed int64, l *layers) (*cycle, error) { return runFS(fsTiny, seed, l) },
		"kv-paxos": func(seed int64, l *layers) (*cycle, error) { return runKV(kvTiny, seed, l) },
		"dn-fleet": func(seed int64, l *layers) (*cycle, error) { return runDN(dnTiny, seed, l) },
	}
}

// runTiny runs one plain and one traced cycle and requires both to be
// correct with no failed operation.
func runTiny(t *testing.T, name string) *cycle {
	t.Helper()
	var plainCycle *cycle
	for _, l := range []*layers{nil, newLayers(name, time.Now(), 100)} {
		cy, err := tinyWorkloads()[name](3, l)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cy.check != nil || cy.failed != 0 || cy.ops == 0 {
			t.Fatalf("%s: check %v, %d of %d operations failed", name, cy.check, cy.failed, cy.ops)
		}
		if l != nil && len(cy.layerVals) == 0 {
			t.Fatalf("%s: traced cycle has no layer metrics", name)
		}
		if plainCycle == nil {
			plainCycle = cy
		}
	}
	return plainCycle
}

// rejects asserts that check finds the corruption just applied.
func rejects(t *testing.T, what string, o checker) {
	t.Helper()
	if err := o.check(); err == nil {
		t.Errorf("check accepted %s", what)
	} else {
		t.Logf("%s: %v", what, err)
	}
}

func TestFSCheckRejectsCorruptAnswers(t *testing.T) {
	o := runTiny(t, "fs-tcp").obs.(*fsObservation)
	m := o.models[0]
	if err := m.checkExists(m.live[0], true); err != nil {
		t.Fatalf("true Exists answer rejected: %v", err)
	}
	if m.checkExists(m.live[0], false) == nil {
		t.Error("check accepted Exists=false for a live path")
	}
	if len(m.gone) > 0 && m.checkExists(m.gone[0], true) == nil {
		t.Error("check accepted Exists=true for a removed path")
	}

	saved := o.listings[0]
	o.listings[0] = saved[1:]
	rejects(t, "a listing missing an entry", o)
	o.listings[0] = append(append([]string(nil), saved...), "ghost")
	rejects(t, "a listing with an extra entry", o)
	o.listings[0] = saved

	o.wrong = m.checkExists(m.live[0], false)
	rejects(t, "a wrong Exists answer during the run", o)
}

func TestKVCheckRejectsCorruptAnswers(t *testing.T) {
	o := runTiny(t, "kv-paxos").obs.(*kvObservation)
	var key, v1, v2 string
	for _, p := range o.puts {
		for _, q := range o.puts {
			if p.key == q.key && p.value != q.value {
				key, v1, v2 = p.key, p.value, q.value
			}
		}
	}
	if key == "" {
		t.Fatal("no key was put twice; raise the tiny put count")
	}

	saved := o.values[1][key]
	o.values[1][key] = "never-put"
	rejects(t, "a replica value never put to its key", o)
	o.values[1][key] = map[bool]string{true: v2, false: v1}[o.values[0][key] == v1]
	rejects(t, "replicas disagreeing on a key", o)
	o.values[1][key] = saved

	delete(o.values[2], key)
	rejects(t, "a replica missing a key", o)
	o.values[2][key] = saved

	cmds := o.decided[0]
	o.decided[0] = cmds[1:]
	rejects(t, "a lost decided put", o)
	o.decided[0] = append(append([]overlog.Value(nil), cmds[1:]...), cmds[2])
	rejects(t, "a put decided twice", o)
	o.decided[0] = cmds

	if err := o.check(); err != nil {
		t.Fatalf("restored observation rejected: %v", err)
	}
}

func TestDNCheckRejectsCorruptAnswers(t *testing.T) {
	o := runTiny(t, "dn-fleet").obs.(*dnObservation)
	saved := o.live
	o.live = saved[1:]
	rejects(t, "a live set missing a datanode", o)
	o.live = append(append([]string(nil), saved[1:]...), "dn:ghost")
	rejects(t, "a live set with a stranger", o)
	o.live = saved

	o.delivered--
	rejects(t, "one heartbeat too few", o)
	o.delivered += 2
	rejects(t, "one heartbeat too many", o)
}

// TestOutputContract runs the command on every tiny workload, plain
// and traced, and checks the last line's shape.
func TestOutputContract(t *testing.T) {
	full := workloads
	workloads = tinyWorkloads()
	defer func() { workloads = full }()
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "5", "--seconds", "0",
				"--trace", trace, "--spans", t.TempDir()}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s\n%s", name, trace, code, errOut.String(), out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", name, trace, err)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != len(want) {
				t.Fatalf("%s trace %s: %+v", name, trace, res)
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s missing or mis-united: %+v", name, trace, d.name, m)
				}
			}
			if trace == "0" {
				for k, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v", name, k, m.Value)
					}
				}
			}
		}
	}
	if code := run([]string{"--workload", "nope"}, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}
