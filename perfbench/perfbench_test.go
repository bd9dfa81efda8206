package main

import (
	"testing"
)

// Short passes of every workload: the same seed must reproduce the
// simulated outcomes bit for bit, traced or not, and another seed must
// change them.
func TestSeedReproducesOutcomes(t *testing.T) {
	cases := []struct {
		name string
		run  func(seed int64, traced bool) (passResult, error)
	}{
		{"node_slo", func(seed int64, traced bool) (passResult, error) {
			return runNodePass(sloScenario(1), seed, traced, nil)
		}},
		{"fleet_64", func(seed int64, traced bool) (passResult, error) {
			return runCoordPass(fleetScenario(64, 12), seed, traced, nil)
		}},
		{"tree_1024", func(seed int64, traced bool) (passResult, error) {
			return runCoordPass(treeScenario(32, 32, 12), seed, traced, nil)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pass := func(seed int64, traced bool) passResult {
				t.Helper()
				res, err := c.run(seed, traced)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(res.broken) > 0 || res.failed > 0 {
					t.Fatalf("seed %d: checks %v, failed operations %v", seed, res.broken, res.errors)
				}
				return res
			}
			a, b, other := pass(1, false), pass(1, true), pass(2, false)
			if len(a.outcome) == 0 {
				t.Fatal("pass reported no simulated outcome")
			}
			if d := outcomeDiff(a.outcome, b.outcome); d != "" {
				t.Errorf("seed 1 untraced vs traced: %s", d)
			}
			if d := outcomeDiff(a.outcome, other.outcome); d == "" {
				t.Errorf("seeds 1 and 2 gave identical outcomes %v", a.outcome)
			}
		})
	}
}
