package powerapi

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
)

// DeltaVersion is the version of the delta-encoded status format. A
// receiver that sees any other value treats the frame as undecodable
// and resynchronizes with a full frame.
const DeltaVersion = 2

// TierStatus rides a NodeStatus when the "node" is really a mid-tier
// coordinator (a row or building) presenting its subtree as one
// synthetic node. It is what lets a parent — and powerctl tree — tell
// a 64-leaf row from a single machine.
type TierStatus struct {
	// Tier is the level label, e.g. "row" or "building".
	Tier string `json:"tier,omitempty"`
	// Children is the number of direct children this tier coordinates.
	Children int `json:"children"`
	// Nodes is the number of leaf nodes in the whole subtree.
	Nodes int `json:"nodes"`
	// Depth is the number of coordinator levels at or below this tier
	// (a row over leaves is 1, a building over rows is 2).
	Depth int `json:"depth"`
	// Quarantined counts direct children currently quarantined.
	Quarantined int `json:"quarantined,omitempty"`
	// BudgetWatts is the budget the tier currently cascades downward —
	// its own granted lease, or its configured budget when standalone.
	BudgetWatts float64 `json:"budget_watts,omitempty"`
}

// StatusDelta is a delta-encoded NodeStatus: only the fields that
// changed since the revision named by Base travel. It exists because a
// thousand-node fleet polls status every round, and most of a frame
// (policy, max watts, app specs, fallback, build identity) is static
// round to round.
//
// The encoding is stateful per server: Rev increments on every frame
// served and Epoch identifies the server incarnation, so a receiver
// can always tell a frame it must not apply (missed revision, restarted
// server, foreign version) from one it can. A frame with Full set is a
// resynchronization point carrying the complete status.
//
// The codec walks the NodeStatus declaration by reflection, so a field
// added there travels in deltas with no change here.
type StatusDelta struct {
	// V is the delta-format version (DeltaVersion).
	V    int    `json:"v"`
	Node string `json:"node"`

	// Epoch identifies the encoder incarnation; it changes when the
	// agent restarts, which invalidates any delta chain built against
	// the previous incarnation.
	Epoch uint64 `json:"epoch"`
	// Rev is this frame's revision. Base is the revision this delta
	// applies on top of; a receiver whose current revision is not Base
	// must discard the frame and resync.
	Rev  uint64 `json:"rev"`
	Base uint64 `json:"base,omitempty"`

	// Full, when set, is a complete status frame (a resync point), and
	// Zero and Set are empty.
	Full *NodeStatus `json:"full,omitempty"`

	// Zero names, by JSON name, the fields that became empty; the
	// receiver resets them to their zero value. An unknown name is
	// refused, never skipped.
	Zero []string `json:"zero,omitempty"`

	// Set carries the changed fields that are not empty, each replacing
	// the receiver's whole; its empty fields mean "unchanged".
	Set *NodeStatus `json:"set,omitempty"`
}

// statusFieldNames holds the JSON name of each NodeStatus field, by
// field index, and statusFieldIndex maps a name back to its index;
// both derive from the struct itself.
var statusFieldNames, statusFieldIndex = func() ([]string, map[string]int) {
	t := reflect.TypeFor[NodeStatus]()
	names := make([]string, t.NumField())
	index := make(map[string]int, t.NumField())
	for i := range names {
		sf := t.Field(i)
		names[i], _, _ = strings.Cut(sf.Tag.Get("json"), ",")
		if names[i] == "" {
			names[i] = sf.Name
		}
		index[names[i]] = i
	}
	return names, index
}()

// DiffStatus computes the delta that turns old into new in one walk
// over the NodeStatus fields. An unchanged field is left out; a
// changed one sends its whole new value in Set, or is named in Zero
// when the new value is empty. Revision bookkeeping is the caller's to
// fill in. The frame is addressed to old's node, so even a renamed
// node's delta applies.
func DiffStatus(old, new *NodeStatus) *StatusDelta {
	d := &StatusDelta{V: DeltaVersion, Node: old.Node}
	ov, nv := reflect.ValueOf(old).Elem(), reflect.ValueOf(new).Elem()
	var set reflect.Value
	put := func(i int, v reflect.Value) {
		if d.Set == nil {
			d.Set = &NodeStatus{}
			set = reflect.ValueOf(d.Set).Elem()
		}
		set.Field(i).Set(v)
	}
	for i, name := range statusFieldNames {
		o, n := ov.Field(i), nv.Field(i)
		switch {
		case sameValue(o, n):
		case empty(n):
			d.Zero = append(d.Zero, name)
		default:
			put(i, n)
		}
	}
	return d
}

// sameValue compares two values of one NodeStatus field.
func sameValue(o, n reflect.Value) bool {
	switch o.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map:
		return reflect.DeepEqual(o.Interface(), n.Interface())
	}
	return o.Equal(n)
}

// empty reports whether a Set field carries no change: a value JSON's
// omitempty drops, or the zero value of a type JSON always encodes.
// Changes to an empty value travel in Zero instead.
func empty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Float32, reflect.Float64:
		return v.Float() == 0
	}
	return v.IsZero()
}

// applyTo folds the frame's changes into st: Zero fields reset, then
// non-empty Set fields replace st's. New values replace old ones rather
// than being written into them, so st may share unchanged composites
// with earlier frames.
func (d *StatusDelta) applyTo(st *NodeStatus) error {
	v := reflect.ValueOf(st).Elem()
	for _, name := range d.Zero {
		i, ok := statusFieldIndex[name]
		if !ok {
			return fmt.Errorf("unknown field %q", name)
		}
		v.Field(i).SetZero()
	}
	if d.Set == nil {
		return nil
	}
	set := reflect.ValueOf(d.Set).Elem()
	for i := range statusFieldNames {
		if n := set.Field(i); !empty(n) {
			v.Field(i).Set(n)
		}
	}
	return nil
}

// ResyncError reports a delta frame that must not be applied; the
// receiver discards its state and requests a full frame.
type ResyncError struct {
	Reason string
}

func (e *ResyncError) Error() string {
	return fmt.Sprintf("powerapi: status delta needs resync: %s", e.Reason)
}

// StatusFollower reconstructs full status frames from a delta stream.
// It refuses — with a *ResyncError — any frame it cannot prove
// contiguous: wrong delta version, unknown epoch, a Base that is not
// the follower's current revision, or a revision that does not move
// forward (a replayed or stale delta). After any refusal the follower
// is unsynchronized and only a Full frame restores it, so one lost
// response can never smear a stale field into later frames.
type StatusFollower struct {
	mu     sync.Mutex
	synced bool
	epoch  uint64
	rev    uint64
	cur    *NodeStatus
}

// Synced reports whether the follower can apply incremental frames;
// when false the next request must ask for a resync (full) frame.
func (f *StatusFollower) Synced() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.synced
}

// Reset forgets all state, forcing the next frame to be a full resync.
func (f *StatusFollower) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.synced = false
	f.cur = nil
}

// Apply folds one frame into the follower and returns the resulting
// complete status. The follower takes ownership of the frame's values.
// The returned status is the caller's, but its composite fields
// (pointers, slices, maps) are shared with the follower and with later
// results while unchanged: treat them as read-only.
func (f *StatusFollower) Apply(d *StatusDelta) (*NodeStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fail := func(reason string) (*NodeStatus, error) {
		f.synced = false
		f.cur = nil
		return nil, &ResyncError{Reason: reason}
	}
	if d == nil {
		return fail("nil frame")
	}
	if d.V != DeltaVersion {
		return fail(fmt.Sprintf("delta version %d, want %d", d.V, DeltaVersion))
	}
	if d.Full != nil {
		if len(d.Zero) != 0 || d.Set != nil {
			return fail("full frame also carries changes")
		}
		cur := *d.Full
		f.synced, f.epoch, f.rev, f.cur = true, d.Epoch, d.Rev, &cur
		out := cur
		return &out, nil
	}
	if !f.synced {
		return fail("delta frame while unsynchronized")
	}
	if d.Epoch != f.epoch {
		return fail(fmt.Sprintf("epoch %d, following %d (server restarted)", d.Epoch, f.epoch))
	}
	if d.Base != f.rev {
		return fail(fmt.Sprintf("base rev %d, following %d (missed a frame)", d.Base, f.rev))
	}
	if d.Rev <= d.Base {
		return fail(fmt.Sprintf("rev %d does not advance base %d (stale delta)", d.Rev, d.Base))
	}
	if d.Node != "" && d.Node != f.cur.Node {
		return fail(fmt.Sprintf("node %q, following %q", d.Node, f.cur.Node))
	}
	next := *f.cur
	if err := d.applyTo(&next); err != nil {
		return fail(err.Error())
	}
	f.cur, f.rev = &next, d.Rev
	out := next
	return &out, nil
}
