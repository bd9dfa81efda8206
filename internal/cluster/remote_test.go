package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/powerapi"
	"repro/internal/units"
)

// sloBackend is a leaf whose one latency service can be flipped
// between meeting and missing its objective.
type sloBackend struct {
	mu    sync.Mutex
	limit units.Watts
	p99   float64
}

func (b *sloBackend) FillStatus(st *powerapi.NodeStatus) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st.Policy = "slo-feedback"
	st.LimitWatts = float64(b.limit)
	st.PowerWatts = float64(b.limit) * 0.8
	st.MaxWatts = 100
	st.SLO = &powerapi.SLOStatus{Services: []powerapi.ServiceSLOStatus{
		{Name: "web", P99MS: b.p99, TargetMS: 65, Met: b.p99 <= 65},
	}}
}

func (b *sloBackend) SetLimit(_ context.Context, w units.Watts) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.limit = w
	return nil
}

func (b *sloBackend) setP99(ms float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.p99 = ms
}

// serveAgent fronts a backend with a control-plane agent on a loopback
// server. The returned counter counts resync requests on the delta
// status stream.
func serveAgent(t *testing.T, name string, be powerapi.Backend, reg *metrics.Registry) (*powerapi.Agent, string, *atomic.Int64) {
	t.Helper()
	a, err := powerapi.NewAgent(powerapi.AgentConfig{Name: name, Backend: be, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	var resyncs atomic.Int64
	h := a.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("resync") != "" {
			resyncs.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return a, srv.URL, &resyncs
}

// TestDeltaStatusCarriesSLOFlip polls a node the way powercoord does —
// CollectMetrics().DeltaStatus() — and checks that its service flipping
// from met to missed moves fleet_slo_attainment. The SLO view must
// travel in deltas, not only in the first full frame.
func TestDeltaStatusCarriesSLOFlip(t *testing.T) {
	be := &sloBackend{limit: 50, p99: 50}
	_, url, _ := serveAgent(t, "n0", be, nil)
	reg := metrics.NewRegistry()
	c, err := NewOverTransports([]Transport{NewHTTPNode("n0", url, "room").CollectMetrics().DeltaStatus()}, Config{
		Budget: 80, LeaseTTL: time.Hour, Retries: -1, Fleet: NewFleet(80, reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	attainment := func() float64 {
		t.Helper()
		if err := c.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		return reg.Values()["fleet_slo_attainment"]
	}
	if got := attainment(); got != 1 {
		t.Fatalf("attainment with the service met = %v, want 1", got)
	}
	be.setP99(90)
	if got := attainment(); got != 0 {
		t.Fatalf("attainment after the service missed = %v, want 0", got)
	}
	be.setP99(40)
	if got := attainment(); got != 1 {
		t.Fatalf("attainment after recovery = %v, want 1", got)
	}
}

// TestMetricsResyncAfterSecondPoller puts a second delta poller between
// two polls of the coordinator's transport. The coordinator must resync
// and then hold exactly the registry's lease counts, not lag behind
// the updates the other poller consumed.
func TestMetricsResyncAfterSecondPoller(t *testing.T) {
	reg := metrics.NewRegistry()
	a, url, resyncs := serveAgent(t, "n0", &sloBackend{limit: 50, p99: 50}, reg)
	node := NewHTTPNode("n0", url, "room").CollectMetrics().DeltaStatus()
	fleet := NewFleet(80, nil)
	round := uint64(0)
	poll := func() {
		t.Helper()
		rep, err := node.Report(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		round++
		fleet.ObserveRound(round, time.Millisecond, []NodeObservation{{Node: "n0", RPC: time.Millisecond, Report: rep}})
	}
	registryEvents := func() map[string]float64 {
		events, _ := registryFacts(reg)
		return events
	}
	grant := func(id uint64) {
		t.Helper()
		if _, err := a.Grant(&powerapi.LeaseGrant{ID: id, LimitWatts: 40, TTLMS: 60_000}); err != nil {
			t.Fatal(err)
		}
	}

	poll()
	grant(1)
	poll()
	if got, want := fleet.Snapshot().LeaseEvents, registryEvents(); !reflect.DeepEqual(got, want) {
		t.Fatalf("lease events = %v, registry has %v", got, want)
	}

	grant(2)
	other := NewHTTPNode("n0", url, "other").CollectMetrics().DeltaStatus()
	if _, err := other.Report(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := resyncs.Load()
	poll()
	if got := resyncs.Load() - before; got != 1 {
		t.Errorf("coordinator resynced %d times after the second poller, want 1", got)
	}
	if got, want := fleet.Snapshot().LeaseEvents, registryEvents(); !reflect.DeepEqual(got, want) {
		t.Fatalf("lease events after the second poller = %v, registry has %v", got, want)
	}
	if registryEvents()["renew"] != 1 {
		t.Fatalf("registry events %v: the second grant should count as one renewal", registryEvents())
	}
}
