package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/internal/powerapi"
	"repro/internal/units"
)

// HTTPNode is a Transport over the powerapi wire protocol: the coordinator
// code that drives in-process simulations drives remote powerd daemons
// through this adapter unchanged.
type HTTPNode struct {
	name    string
	coord   string
	client  *powerapi.Client
	leaseID atomic.Uint64

	// collect attaches the fleet fields to every report.
	collect bool

	// follower, when non-nil, switches status RPCs to the delta-encoded
	// stream: steady-state reports carry only changed fields, and any
	// inapplicable delta or transport error forces a full resync. The
	// coordinator serialises rounds, so the follower needs no lock here.
	follower *powerapi.StatusFollower
}

// NewHTTPNode builds a transport for a remote node reachable at addr
// (the node's observability listen address). coord names the granting
// coordinator in lease messages; it may be empty.
func NewHTTPNode(name, addr, coord string) *HTTPNode {
	return &HTTPNode{name: name, coord: coord, client: powerapi.NewClient(addr)}
}

// WithHTTPClient swaps the underlying HTTP client (tests, timeouts).
func (h *HTTPNode) WithHTTPClient(c *http.Client) *HTTPNode {
	h.client.WithHTTPClient(c)
	return h
}

// CollectMetrics makes every report RPC carry what fleet aggregation
// reads beyond the control state: the node agent's lease-event counts
// and build identity (powerapi.NodeStatus.LeaseEvents, Build).
func (h *HTTPNode) CollectMetrics() *HTTPNode {
	h.collect = true
	return h
}

// DeltaStatus switches report RPCs to the delta-encoded status stream
// (see powerapi.StatusFollower): after the first full snapshot the node
// replies with only the fields that changed since the last report,
// which is what keeps a thousand-leaf tier tree's uplink traffic flat.
// Deltas are stateful on the server side: with a second delta poller
// on the same node, every report pays a resync, so keep this transport
// the node's only one.
func (h *HTTPNode) DeltaStatus() *HTTPNode {
	h.follower = &powerapi.StatusFollower{}
	return h
}

func (h *HTTPNode) Name() string { return h.name }

func (h *HTTPNode) Report(ctx context.Context) (Report, error) {
	var st *powerapi.NodeStatus
	var err error
	switch {
	case h.follower != nil:
		st, err = h.client.FollowStatus(ctx, h.follower, h.collect)
	case h.collect:
		st, err = h.client.StatusWithMetrics(ctx)
	default:
		st, err = h.client.Status(ctx)
	}
	if err != nil {
		return Report{}, err
	}
	return Report{
		Power:  units.Watts(st.PowerWatts),
		Limit:  units.Watts(st.LimitWatts),
		Max:    units.Watts(st.MaxWatts),
		Status: st,
	}, nil
}

func (h *HTTPNode) Grant(ctx context.Context, g Grant) error {
	ack, err := h.client.Lease(ctx, &powerapi.LeaseGrant{
		ID:            h.leaseID.Add(1),
		Coordinator:   h.coord,
		LimitWatts:    float64(g.Limit),
		TTLMS:         g.TTL.Milliseconds(),
		FallbackWatts: float64(g.Fallback),
	})
	if err != nil {
		return err
	}
	if !ack.Applied {
		return fmt.Errorf("cluster: node %s refused grant: %s", h.name, ack.Reason)
	}
	return nil
}
