package cluster

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/powerapi"
	"repro/internal/units"
)

func obsFor(node string, rpc time.Duration, power, limit float64, st *powerapi.NodeStatus) NodeObservation {
	return NodeObservation{
		Node: node,
		RPC:  rpc,
		Report: Report{
			Power: units.Watts(power), Limit: units.Watts(limit),
			Status: st,
		},
	}
}

func TestFleetRollups(t *testing.T) {
	reg := metrics.NewRegistry()
	f := NewFleet(100, reg)

	stA := &powerapi.NodeStatus{
		Node: "a", Policy: "frequency-shares",
		Apps:        []powerapi.AppShare{{Name: "gcc", Watts: 10}, {Name: "cam4", Watts: 5}},
		LeaseEvents: &powerapi.LeaseEvents{Grant: 1},
		Build:       &metrics.BuildInfo{Component: "powerd", Version: "v1", GoVersion: "go1.22"},
	}
	stB := &powerapi.NodeStatus{
		Node:        "b",
		Apps:        []powerapi.AppShare{{Name: "gcc", Watts: 20}},
		LeaseEvents: &powerapi.LeaseEvents{Grant: 2},
		Build:       &metrics.BuildInfo{Component: "powerd", Version: "v2", GoVersion: "go1.22"},
	}

	f.ObserveRound(1, 10*time.Millisecond, []NodeObservation{
		obsFor("a", 2*time.Millisecond, 30, 40, stA),
		obsFor("b", 3*time.Millisecond, 25, 35, stB),
		{Node: "c", Err: fmt.Errorf("connection refused")},
	})

	snap := f.Snapshot()
	if snap.Round != 1 || snap.BudgetWatts != 100 {
		t.Fatalf("snapshot header = %+v", snap)
	}
	if snap.TotalPowerWatts != 55 {
		t.Errorf("total power = %v, want 55", snap.TotalPowerWatts)
	}
	if len(snap.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(snap.Nodes))
	}
	if snap.Nodes[2].Name != "c" || snap.Nodes[2].MissedRounds != 1 {
		t.Errorf("failed node row = %+v", snap.Nodes[2])
	}
	// Apps are summed across nodes and sorted by watts.
	if len(snap.Apps) != 2 || snap.Apps[0].Name != "gcc" || snap.Apps[0].Watts != 30 || snap.Apps[0].Nodes != 2 {
		t.Errorf("apps = %+v", snap.Apps)
	}
	if snap.LeaseEvents["grant"] != 3 {
		t.Errorf("lease events = %v", snap.LeaseEvents)
	}
	// Two distinct build_info series → version skew.
	wantVersions := []string{
		`padpd_build_info{component="powerd",version="v1",go_version="go1.22"}`,
		`padpd_build_info{component="powerd",version="v2",go_version="go1.22"}`,
	}
	if !reflect.DeepEqual(snap.Versions, wantVersions) || !snap.MixedVersions {
		t.Errorf("versions = %v mixed=%v, want %v mixed", snap.Versions, snap.MixedVersions, wantVersions)
	}
	if snap.RoundLatency.Samples != 1 || snap.RoundLatency.MaxMS != 10 {
		t.Errorf("round latency = %+v", snap.RoundLatency)
	}

	// Rollup gauges on the registry agree.
	vals := reg.Values()
	if vals["fleet_power_watts"] != 55 || vals["fleet_budget_watts"] != 100 {
		t.Errorf("gauges = power %v budget %v", vals["fleet_power_watts"], vals["fleet_budget_watts"])
	}
	if vals["fleet_nodes"] != 3 || vals["fleet_nodes_reporting"] != 2 {
		t.Errorf("node gauges = %v / %v", vals["fleet_nodes"], vals["fleet_nodes_reporting"])
	}
	if vals[`fleet_app_watts{app="gcc"}`] != 30 {
		t.Errorf("app gauge = %v", vals[`fleet_app_watts{app="gcc"}`])
	}
}

// TestFleetMetricsReplaceAndStragglers checks that each report's
// lease events replace the node's previous ones whole — an event
// missing from the latest report no longer counts — and that the
// straggler ranking follows the slow node.
func TestFleetMetricsReplaceAndStragglers(t *testing.T) {
	f := NewFleet(100, nil)

	first := &powerapi.NodeStatus{Node: "a", LeaseEvents: &powerapi.LeaseEvents{Grant: 1, Renew: 2}}
	second := &powerapi.NodeStatus{Node: "a", LeaseEvents: &powerapi.LeaseEvents{Grant: 1, Renew: 5}}
	third := &powerapi.NodeStatus{Node: "a", LeaseEvents: &powerapi.LeaseEvents{Renew: 7}}

	mk := func(rpcA time.Duration, st *powerapi.NodeStatus) []NodeObservation {
		return []NodeObservation{
			obsFor("a", rpcA, 10, 20, st),
			obsFor("b", 1*time.Millisecond, 10, 20, nil),
			obsFor("c", 1*time.Millisecond, 10, 20, nil),
		}
	}
	// Round 1: node a slow enough to be the straggler (2× the 1 ms
	// median and over the 5 ms absolute floor).
	f.ObserveRound(1, 50*time.Millisecond, mk(40*time.Millisecond, first))
	// Round 2: the new report replaces the old; everyone fast, no
	// straggler.
	f.ObserveRound(2, 5*time.Millisecond, mk(1*time.Millisecond, second))

	snap := f.Snapshot()
	if len(snap.Stragglers) != 1 || snap.Stragglers[0].Node != "a" || snap.Stragglers[0].Rounds != 1 {
		t.Fatalf("stragglers = %+v", snap.Stragglers)
	}
	if ev := snap.LeaseEvents; ev["grant"] != 1 || ev["renew"] != 5 {
		t.Errorf("lease events = %v, want grant=1 renew=5 from the latest report", ev)
	}

	// A report without an event drops it: nothing stale survives.
	f.ObserveRound(3, 5*time.Millisecond, mk(1*time.Millisecond, third))
	if ev := f.Snapshot().LeaseEvents; len(ev) != 1 || ev["renew"] != 7 {
		t.Errorf("lease events = %v, want only renew=7", ev)
	}
}

// registryFacts reads what the fleet should report from the nodes'
// registries as /metrics exposes them: lease-event counts summed by
// event, and the distinct padpd_build_info series, sorted.
func registryFacts(regs ...*metrics.Registry) (events map[string]float64, versions []string) {
	events = map[string]float64{}
	seen := map[string]bool{}
	for _, reg := range regs {
		for k, v := range reg.Values() {
			if ev, ok := strings.CutPrefix(k, `powerapi_lease_events_total{event="`); ok && v > 0 {
				events[strings.TrimSuffix(ev, `"}`)] += v
			}
			if strings.HasPrefix(k, "padpd_build_info{") && !seen[k] {
				seen[k] = true
				versions = append(versions, k)
			}
		}
	}
	sort.Strings(versions)
	if len(events) == 0 {
		events = nil
	}
	return events, versions
}

// TestFleetFactsMatchRegistries polls live agents the way powercoord
// does and checks that the fleet's lease events, versions and version
// skew equal what the nodes' registries hold, as lease events accrue —
// in a uniform room, and in one where a node runs an older build.
func TestFleetFactsMatchRegistries(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		t.Run(fmt.Sprintf("mixed=%v", mixed), func(t *testing.T) {
			const n = 3
			regs := make([]*metrics.Registry, n)
			agents := make([]*powerapi.Agent, n)
			ts := make([]Transport, n)
			for i := range regs {
				regs[i] = metrics.NewRegistry()
				if mixed && i == n-1 {
					regs[i].GaugeVec("padpd_build_info", "", "component", "version", "go_version").
						With("powerd", "v0.9", "go1.21").Set(1)
				} else {
					metrics.RegisterBuildInfo(regs[i], "powerd")
				}
				name := fmt.Sprintf("n%d", i)
				var url string
				agents[i], url, _ = serveAgent(t, name, &sloBackend{limit: 50, p99: 50}, regs[i])
				ts[i] = NewHTTPNode(name, url, "room").CollectMetrics().DeltaStatus()
			}
			fleet := NewFleet(150, nil)
			round := uint64(0)
			pollAndCheck := func(when string) {
				t.Helper()
				round++
				obs := make([]NodeObservation, n)
				for i, tr := range ts {
					rep, err := tr.Report(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					obs[i] = NodeObservation{Node: tr.Name(), RPC: time.Millisecond, Report: rep}
				}
				fleet.ObserveRound(round, time.Millisecond, obs)
				snap := fleet.Snapshot()
				events, versions := registryFacts(regs...)
				if !reflect.DeepEqual(snap.LeaseEvents, events) {
					t.Errorf("%s: lease events = %v, registries hold %v", when, snap.LeaseEvents, events)
				}
				if !reflect.DeepEqual(snap.Versions, versions) || snap.MixedVersions != (len(versions) > 1) {
					t.Errorf("%s: versions = %v mixed=%v, registries hold %v", when, snap.Versions, snap.MixedVersions, versions)
				}
				want := 1
				if mixed {
					want = 2
				}
				if len(versions) != want {
					t.Errorf("%s: registries hold %d versions, want %d", when, len(versions), want)
				}
			}
			grant := func(a *powerapi.Agent, id uint64, ttlMS int64) {
				t.Helper()
				if _, err := a.Grant(&powerapi.LeaseGrant{ID: id, LimitWatts: 40, TTLMS: ttlMS}); (err == nil) != (ttlMS > 0) {
					t.Fatalf("grant %d with TTL %d ms: err = %v", id, ttlMS, err)
				}
			}

			pollAndCheck("before any lease")
			for _, a := range agents {
				grant(a, 1, 60_000)
			}
			pollAndCheck("after the grants")
			grant(agents[0], 2, 60_000) // renew
			grant(agents[1], 2, 0)      // refuse: invalid TTL
			pollAndCheck("after a renewal and a refusal")
		})
	}
}

func TestFleetNilSafe(t *testing.T) {
	var f *Fleet
	f.ObserveRound(1, time.Millisecond, []NodeObservation{{Node: "a"}})
	if snap := f.Snapshot(); snap.Round != 0 || snap.Nodes != nil {
		t.Fatalf("nil fleet snapshot = %+v", snap)
	}
}
