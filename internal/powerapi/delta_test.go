package powerapi

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/units"
)

// stubBackend is a minimal settable backend: what a leaf looks like to
// the agent, without a daemon underneath.
type stubBackend struct {
	mu     sync.Mutex
	limit  units.Watts
	power  float64
	iters  int
	apps   []AppShare
	tier   *TierStatus
	energy *EnergyStatus
	slo    *SLOStatus
	fail   error
}

func (b *stubBackend) FillStatus(st *NodeStatus) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st.Policy = "stub"
	st.LimitWatts = float64(b.limit)
	st.PowerWatts = b.power
	st.MaxWatts = 100
	st.Iterations = b.iters
	st.Apps = append([]AppShare(nil), b.apps...)
	if b.tier != nil {
		t := *b.tier
		st.Tier = &t
	}
	st.Energy = b.energy
	st.SLO = b.slo
}

func (b *stubBackend) SetLimit(_ context.Context, w units.Watts) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fail != nil {
		return b.fail
	}
	b.limit = w
	return nil
}

func (b *stubBackend) set(power float64, iters int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.power, b.iters = power, iters
}

func newStubAgent(t *testing.T, name string) (*Agent, *stubBackend) {
	t.Helper()
	be := &stubBackend{limit: 50, power: 42, iters: 1}
	a, err := NewAgent(AgentConfig{Name: name, Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a, be
}

// TestBackendAgentDefaults checks the generic fallback default: with no
// explicit fallback the agent adopts whatever limit the backend
// enforces at construction.
func TestBackendAgentDefaults(t *testing.T) {
	a, _ := newStubAgent(t, "n0")
	st := a.Status()
	if st.FallbackWatts != 50 {
		t.Fatalf("fallback = %v, want the backend's construction-time limit 50", st.FallbackWatts)
	}
	if st.Node != "n0" || st.Policy != "stub" || st.MaxWatts != 100 {
		t.Fatalf("status = %+v", st)
	}
	if _, err := NewAgent(AgentConfig{Name: "x"}); err == nil {
		t.Fatal("agent without daemon or backend was accepted")
	}
	if _, err := NewAgent(AgentConfig{Name: "x", Backend: &stubBackend{}, Daemon: nil}); err != nil {
		t.Fatalf("backend-only agent rejected: %v", err)
	}
}

// wireDelta sends a frame through the envelope codec, as an agent's
// reply travels.
func wireDelta(t testing.TB, d *StatusDelta) *StatusDelta {
	t.Helper()
	data, err := Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := UnmarshalAs(data, KindStatusDelta)
	if err != nil {
		t.Fatal(err)
	}
	return msg.(*StatusDelta)
}

// followFrames feeds frames[0] to a follower as a full frame and every
// later frame as the DiffStatus delta from its predecessor, checking
// that each result equals the frame it encodes.
func followFrames(t *testing.T, frames ...*NodeStatus) {
	t.Helper()
	var f StatusFollower
	if _, err := f.Apply(wireDelta(t, &StatusDelta{V: DeltaVersion, Node: frames[0].Node, Epoch: 9, Rev: 1, Full: frames[0]})); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(frames); i++ {
		d := DiffStatus(frames[i-1], frames[i])
		d.Epoch, d.Base, d.Rev = 9, uint64(i), uint64(i+1)
		got, err := f.Apply(wireDelta(t, d))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, frames[i]) {
			t.Fatalf("frame %d:\n got %+v\nwant %+v", i, got, frames[i])
		}
	}
}

// TestDiffStatusApplyRoundTrip drives the encoder and follower through
// a sequence of status mutations: every diff applied on top of the
// previous frame must reproduce the new frame exactly.
func TestDiffStatusApplyRoundTrip(t *testing.T) {
	slo := func(p99 float64, met bool) *SLOStatus {
		return &SLOStatus{Services: []ServiceSLOStatus{{Name: "web", P99MS: p99, TargetMS: 65, Met: met}}}
	}
	build := &metrics.BuildInfo{Component: "powerd", Version: "v1", GoVersion: "go1.22"}
	followFrames(t,
		&NodeStatus{Node: "n0", Policy: "p", LimitWatts: 50, PowerWatts: 40, MaxWatts: 100, Iterations: 1,
			Build: build},
		&NodeStatus{Node: "n0", Policy: "p", LimitWatts: 50, PowerWatts: 44, MaxWatts: 100, Iterations: 2,
			Lease:       &LeaseInfo{ID: 1, LimitWatts: 50, TTLMS: 1000, RemainingMS: 900},
			Apps:        []AppShare{{Name: "gcc", Core: 0, Shares: 90, Watts: 11}},
			SLO:         slo(50, true),
			LeaseEvents: &LeaseEvents{Grant: 1},
			Build:       build},
		&NodeStatus{Node: "n0", Policy: "q", LimitWatts: 30, PowerWatts: 29, MaxWatts: 100, Iterations: 3,
			Apps:        []AppShare{{Name: "gcc", Core: 0, Shares: 90, Watts: 8}},
			Energy:      &EnergyStatus{TotalUJ: 12345, TotalJoules: 0.012, Apps: []AppEnergy{{Name: "gcc", TotalUJ: 12000}}},
			SLO:         slo(90, false),
			LeaseEvents: &LeaseEvents{Grant: 1, Expire: 1, Fallback: 1},
			Build:       &metrics.BuildInfo{Component: "powerd", Version: "v2", GoVersion: "go1.22"}},
		&NodeStatus{Node: "n0", Policy: "q", LimitWatts: 30, PowerWatts: 28, MaxWatts: 100, Iterations: 4, Draining: true,
			Tier: &TierStatus{Tier: "row", Children: 4, Nodes: 4, Depth: 1, BudgetWatts: 120}},
	)
}

// fill sets v, and everything reachable from it, to a non-zero value.
func fill(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint64:
		v.SetUint(7)
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(t, v.Index(0))
	case reflect.Map:
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(t, k)
		fill(t, e)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i))
			}
		}
	default:
		t.Fatalf("no filler for %s", v.Type())
	}
}

// TestDeltaCarriesEveryField sets each exported NodeStatus field, found
// by reflection, to a non-zero value and checks that it survives a
// full frame, a delta that sets it, and a delta that empties it — so a
// field added to NodeStatus cannot be left out of the delta stream.
func TestDeltaCarriesEveryField(t *testing.T) {
	typ := reflect.TypeFor[NodeStatus]()
	all := &NodeStatus{}
	fill(t, reflect.ValueOf(all).Elem())
	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		if !sf.IsExported() {
			continue
		}
		t.Run(sf.Name, func(t *testing.T) {
			empty := &NodeStatus{Node: "n0"}
			set := &NodeStatus{Node: "n0"}
			fill(t, reflect.ValueOf(set).Elem().Field(i))
			followFrames(t, empty, set, empty)
			followFrames(t, set, empty, set)
		})
	}
	followFrames(t, &NodeStatus{Node: "x"}, all, &NodeStatus{Node: "x"})
}

// deliver hands a status_delta body to a follower the way FollowStatus
// does: a body that does not decode resets the follower, one that
// decodes is applied.
func deliver(f *StatusFollower, body string) error {
	msg, err := UnmarshalAs([]byte(`{"v":1,"kind":"status_delta","body":`+body+`}`), KindStatusDelta)
	if err != nil {
		f.Reset()
		return err
	}
	_, err = f.Apply(msg.(*StatusDelta))
	return err
}

// TestStatusFollowerRefusals enumerates the frames a follower must
// refuse — and checks that after each refusal only a full frame
// restores it.
func TestStatusFollowerRefusals(t *testing.T) {
	full := func(rev int) string {
		return fmt.Sprintf(`{"v":2,"node":"n0","epoch":9,"rev":%d,"full":{"node":"n0","policy":"p","limit_watts":50}}`, rev)
	}
	cases := []struct{ name, frame string }{
		{"foreign delta version", `{"v":3,"node":"n0","epoch":9,"rev":2,"base":1,"set":{"limit_watts":51}}`},
		{"epoch change", `{"v":2,"node":"n0","epoch":10,"rev":2,"base":1,"set":{"limit_watts":51}}`},
		{"missed frame", `{"v":2,"node":"n0","epoch":9,"rev":5,"base":3,"set":{"limit_watts":51}}`},
		{"stale replay", `{"v":2,"node":"n0","epoch":9,"rev":1,"base":1,"set":{"limit_watts":51}}`},
		{"unknown field", `{"v":2,"node":"n0","epoch":9,"rev":2,"base":1,"set":{"future":1}}`},
		{"unknown zero field", `{"v":2,"node":"n0","epoch":9,"rev":2,"base":1,"zero":["future"]}`},
		{"wrong node", `{"v":2,"node":"n1","epoch":9,"rev":2,"base":1,"set":{"limit_watts":51}}`},
		{"undecodable value", `{"v":2,"node":"n0","epoch":9,"rev":2,"base":1,"set":{"limit_watts":"high"}}`},
		{"unknown nested field", `{"v":2,"node":"n0","epoch":9,"rev":2,"base":1,"set":{"lease":{"id":1,"future":2}}}`},
		{"full frame with changes", `{"v":2,"node":"n0","epoch":9,"rev":2,"full":{"node":"n0"},"zero":["lease"]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var f StatusFollower
			if err := deliver(&f, full(1)); err != nil {
				t.Fatal(err)
			}
			if err := deliver(&f, tc.frame); err == nil {
				t.Fatal("frame was applied")
			}
			if f.Synced() {
				t.Fatal("follower still synced after refusal")
			}
			if err := deliver(&f, `{"v":2,"node":"n0","epoch":9,"rev":7,"base":6,"set":{"limit_watts":51}}`); err == nil {
				t.Fatal("delta applied while unsynchronized")
			} else if _, ok := err.(*ResyncError); !ok {
				t.Fatalf("error %T, want *ResyncError", err)
			}
			if err := deliver(&f, full(8)); err != nil {
				t.Fatalf("full frame did not resync: %v", err)
			}
		})
	}
}

// TestFollowStatusOverHTTP runs the whole loop against a live agent:
// full resync on first contact, deltas on the steady path, and a
// transparent re-resync when a second follower steals the server-side
// baseline (the single-poller caveat, exercised deliberately).
func TestFollowStatusOverHTTP(t *testing.T) {
	a, be := newStubAgent(t, "n0")
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)

	var f StatusFollower
	st, err := c.FollowStatus(context.Background(), &f, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.PowerWatts != 42 || st.Iterations != 1 {
		t.Fatalf("first frame = %+v", st)
	}
	be.set(47.5, 2)
	if st, err = c.FollowStatus(context.Background(), &f, false); err != nil {
		t.Fatal(err)
	}
	if st.PowerWatts != 47.5 || st.Iterations != 2 {
		t.Fatalf("delta frame = %+v", st)
	}

	// A second follower advances the agent's revision chain; the first
	// follower's next delta no longer applies and must resync.
	var thief StatusFollower
	if _, err := c.FollowStatus(context.Background(), &thief, false); err != nil {
		t.Fatal(err)
	}
	be.set(33, 3)
	if st, err = c.FollowStatus(context.Background(), &f, false); err != nil {
		t.Fatalf("resync after stolen baseline: %v", err)
	}
	if st.PowerWatts != 33 || st.Iterations != 3 {
		t.Fatalf("post-resync frame = %+v", st)
	}
}

// captureDeltaEnvelopes records real frames an agent serves in delta
// mode to a fleet poll, covering lease counters that change, a build
// identity that appears and disappears, SLO changes, and composites
// that appear and disappear.
func captureDeltaEnvelopes(f *testing.F) [][]byte {
	f.Helper()
	be := &stubBackend{limit: 50, power: 42, iters: 1}
	reg := metrics.NewRegistry()
	a, err := NewAgent(AgentConfig{Name: "n0", Backend: be, Metrics: reg})
	if err != nil {
		f.Fatal(err)
	}
	defer a.Close()
	var out [][]byte
	poll := func(resync, fleet bool) {
		st := a.Status()
		if fleet {
			st.LeaseEvents, st.Build = a.mLease.events(), reg.BuildInfo()
		}
		data, err := MarshalRound(a.statusDelta(st, resync), 7)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, data)
	}
	add := func(resync bool) { poll(resync, true) }
	change := func(fn func()) {
		be.mu.Lock()
		fn()
		be.mu.Unlock()
		add(false)
	}
	grant := func(id uint64) {
		if _, err := a.Grant(&LeaseGrant{ID: id, LimitWatts: 40, TTLMS: 60_000}); err != nil {
			f.Fatal(err)
		}
	}
	add(true) // full resync frame
	be.set(44, 2)
	add(false) // scalar delta
	metrics.RegisterBuildInfo(reg, "powerd")
	add(false) // build identity appears
	// SLO appears, then misses.
	change(func() {
		be.slo = &SLOStatus{Services: []ServiceSLOStatus{{Name: "web", P99MS: 50, TargetMS: 65, Met: true}}}
	})
	change(func() {
		be.slo = &SLOStatus{Services: []ServiceSLOStatus{{Name: "web", P99MS: 90, TargetMS: 65}}}
	})
	grant(1)
	add(false) // lease and the grant count appear
	grant(2)
	add(false) // renew count
	change(func() { be.tier = &TierStatus{Tier: "row", Children: 8, Nodes: 64, Depth: 1, BudgetWatts: 400} })
	if _, err := a.SetDrain(true); err != nil {
		f.Fatal(err)
	}
	a.Grant(&LeaseGrant{ID: 3, LimitWatts: 40, TTLMS: 60_000})
	add(false) // lease cleared, draining set, refuse count
	// Composites, lease counters and build identity disappear.
	be.mu.Lock()
	be.tier, be.slo = nil, nil
	be.mu.Unlock()
	poll(false, false)
	return out
}

// fuzzBase is the status FuzzStatusDelta's follower holds before the
// fuzzed frame arrives.
func fuzzBase(node string) *NodeStatus {
	return &NodeStatus{Node: node, Policy: "p", LimitWatts: 10,
		Lease:       &LeaseInfo{ID: 1, LimitWatts: 10, TTLMS: 500},
		Apps:        []AppShare{{Name: "a", Core: 0}},
		SLO:         &SLOStatus{Services: []ServiceSLOStatus{{Name: "web", P99MS: 50, Met: true}}},
		LeaseEvents: &LeaseEvents{Grant: 1, Renew: 2},
		Build:       &metrics.BuildInfo{Component: "powerd", Version: "v1", GoVersion: "go1.22"}}
}

// canonical is a status's wire form, which ignores the nil/empty
// distinctions JSON cannot carry.
func canonical(t *testing.T, st *NodeStatus) string {
	t.Helper()
	data, err := Marshal(st)
	if err != nil {
		t.Fatalf("status does not marshal: %v", err)
	}
	return string(data)
}

// FuzzStatusDelta hammers the delta-status decoder: any envelope, however
// mangled, must either be refused (after which only a full frame
// resyncs the follower) or be provably contiguous with the follower's
// state and bring it to a canonical fixed point: re-deriving the
// transition with DiffStatus reproduces the same status, which then
// diffs against itself to nothing. It must never panic and never apply
// a stale or foreign frame.
func FuzzStatusDelta(f *testing.F) {
	for _, data := range captureDeltaEnvelopes(f) {
		f.Add(data)
	}
	mk := func(body string) []byte {
		return []byte(`{"v":1,"kind":"status_delta","body":` + body + `}`)
	}
	f.Add(mk(`{"v":2,"node":"n0","epoch":9,"rev":5,"base":5,"set":{"power_watts":1}}`)) // stale
	f.Add(mk(`{"v":2,"node":"n0","epoch":9,"rev":2,"base":9,"set":{"power_watts":1}}`)) // gap
	f.Add(mk(`{"v":1,"node":"n0","epoch":9,"rev":2,"base":1,"power_watts":1}`))         // foreign version
	f.Add(mk(`{"v":2,"node":"n0","epoch":9,"rev":2,"base":1,"zero":["huh"]}`))          // unknown zero field
	f.Add(mk(`{"v":2,"node":"n0","epoch":8,"rev":2,"base":1,"set":{"iterations":3}}`))  // wrong epoch
	f.Add(mk(`{"v":2,"node":"n0","epoch":9,"rev":2,"base":1,"zero":["slo","apps"]}`))   // composites emptied
	f.Add(mk(`{"v":2,"node":"n0","epoch":9,"rev":2,"base":1,"set":{"lease_events":{"grant":1,"renew":3,"expire":1},"build":{"component":"powerd","version":"v2","go_version":"go1.24"}}}`))
	f.Add(mk(`{"v":2,"node":"n0","epoch":9,"rev":2,"base":1,"zero":["build","lease_events"]}`)) // identity and counters gone
	f.Add(mk(`{"v":2,"node":"n0","epoch":9,"rev":3,"base":2,"full":{"node":"n0"},"set":{"power_watts":4}}`))
	f.Add([]byte(`{"v":1,"kind":"status_delta","body":{}}`))
	f.Add([]byte(`{"v":1,"kind":"status_delta","body":{"v":2,"bogus":3}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, msg, err := UnmarshalEnvelope(data)
		if err != nil {
			return
		}
		d, ok := msg.(*StatusDelta)
		if !ok {
			return
		}
		// Seed a follower that is, by construction, contiguous with the
		// frame's own (epoch, base) claim — the hardest state to fool.
		base := fuzzBase(d.Node)
		var fl StatusFollower
		if _, err := fl.Apply(&StatusDelta{V: DeltaVersion, Node: d.Node, Epoch: d.Epoch, Rev: d.Base, Full: base}); err != nil {
			t.Fatalf("seeding follower: %v", err)
		}
		st, err := fl.Apply(d)
		if err != nil {
			if _, ok := err.(*ResyncError); !ok {
				t.Fatalf("refusal error %T, want *ResyncError", err)
			}
			if fl.Synced() {
				t.Fatal("follower stayed synced after refusing a frame")
			}
			// A delta must now be refused, and a full frame accepted.
			w := &NodeStatus{PowerWatts: 1}
			if _, err := fl.Apply(&StatusDelta{V: DeltaVersion, Node: d.Node, Epoch: d.Epoch, Rev: d.Rev + 1, Base: d.Rev, Set: w}); err == nil {
				t.Fatal("delta applied while unsynchronized")
			}
			if _, err := fl.Apply(&StatusDelta{V: DeltaVersion, Node: d.Node, Epoch: d.Epoch, Rev: d.Rev + 2, Full: base}); err != nil {
				t.Fatalf("full frame did not resync: %v", err)
			}
			return
		}
		// The frame applied: it must have been provably contiguous.
		if d.V != DeltaVersion {
			t.Fatalf("applied foreign delta version %d", d.V)
		}
		if d.Full != nil {
			if canonical(t, st) != canonical(t, d.Full) {
				t.Fatalf("full frame applied as %s, want %s", canonical(t, st), canonical(t, d.Full))
			}
			return
		}
		if d.Rev <= d.Base {
			t.Fatalf("applied stale delta rev %d over base %d", d.Rev, d.Base)
		}
		// Re-deriving the transition reaches the same canonical status.
		re := DiffStatus(base, st)
		re.Epoch, re.Base, re.Rev = 1, 1, 2
		var again StatusFollower
		if _, err := again.Apply(&StatusDelta{V: DeltaVersion, Node: base.Node, Epoch: 1, Rev: 1, Full: fuzzBase(d.Node)}); err != nil {
			t.Fatal(err)
		}
		st2, err := again.Apply(wireDelta(t, re))
		if err != nil {
			t.Fatalf("re-derived delta refused: %v", err)
		}
		if canonical(t, st2) != canonical(t, st) {
			t.Fatalf("not a fixed point:\n applied %s\nre-derived %s", canonical(t, st), canonical(t, st2))
		}
		if self := DiffStatus(st, st); self.Set != nil || self.Zero != nil {
			t.Fatalf("applied status diffs against itself: %+v", self)
		}
		// And a replay of the very same frame must now be refused.
		if _, err := fl.Apply(d); err == nil {
			t.Fatal("replayed delta applied twice")
		}
	})
}
