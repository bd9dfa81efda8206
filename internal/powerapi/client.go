package powerapi

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// Client speaks the node side of the protocol to one powerd daemon —
// the coordinator's and powerctl's view of a remote node.
type Client struct {
	base string
	http *http.Client
}

// NewClient builds a client for a node's observability address
// (e.g. "127.0.0.1:9090" or "http://node7:9090").
func NewClient(addr string) *Client {
	return &Client{base: normalize(addr), http: http.DefaultClient}
}

// WithHTTPClient swaps the underlying HTTP client (tests, timeouts).
func (c *Client) WithHTTPClient(h *http.Client) *Client {
	c.http = h
	return c
}

func normalize(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// roundTrip performs one request and decodes the expected reply kind;
// ErrorReply envelopes surface as *ErrorReply errors. A control-round
// ID on the context (WithRound) is propagated: bodied requests carry it
// in the envelope, body-less ones as a ?round= query parameter.
func (c *Client) roundTrip(ctx context.Context, method, path string, msg any, want string) (any, error) {
	round := RoundFrom(ctx)
	var body io.Reader
	if msg != nil {
		data, err := MarshalRound(msg, round)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(data)
	} else if round != 0 {
		sep := "?"
		if strings.Contains(path, "?") {
			sep = "&"
		}
		path += sep + "round=" + strconv.FormatUint(round, 10)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, fmt.Errorf("powerapi: %w", err)
	}
	if msg != nil {
		req.Header.Set("Content-Type", ContentType)
	}
	req.Header.Set("Accept", ContentType)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("powerapi: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return nil, fmt.Errorf("powerapi: %s %s: reading reply: %w", method, path, err)
	}
	reply, err := UnmarshalAs(data, want)
	if err != nil {
		if _, ok := err.(*ErrorReply); !ok && resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("powerapi: %s %s: HTTP %d: %s", method, path, resp.StatusCode, firstLine(data))
		}
		return nil, err
	}
	return reply, nil
}

func firstLine(data []byte) string {
	s := strings.TrimSpace(string(data))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// Status fetches the node's control-plane status.
func (c *Client) Status(ctx context.Context) (*NodeStatus, error) {
	return c.status(ctx, false)
}

// StatusWithMetrics fetches the node's status with what fleet
// aggregation reads attached: lease-event counts and build identity.
func (c *Client) StatusWithMetrics(ctx context.Context) (*NodeStatus, error) {
	return c.status(ctx, true)
}

func (c *Client) status(ctx context.Context, metrics bool) (*NodeStatus, error) {
	reply, err := c.roundTrip(ctx, http.MethodGet, statusPath(metrics, false, false), nil, KindStatus)
	if err != nil {
		return nil, err
	}
	return reply.(*NodeStatus), nil
}

// StatusEncDelta asks the status endpoint for a delta-encoded frame.
const StatusEncDelta = "delta"

// statusPath builds a status request: metrics attaches the fleet
// fields, delta selects the delta-encoded stream, and resync asks that
// stream for a full frame.
func statusPath(metrics, delta, resync bool) string {
	q := url.Values{}
	if metrics {
		q.Set("metrics", "1")
	}
	if delta {
		q.Set("status", StatusEncDelta)
	}
	if resync {
		q.Set("resync", "1")
	}
	if len(q) == 0 {
		return PathPrefix + "status"
	}
	return PathPrefix + "status?" + q.Encode()
}

// StatusDelta fetches one delta-encoded status frame, with the fleet
// fields attached when metrics is set. resync forces a full frame; use
// it on first contact and whenever the follower lost sync. Most callers
// want FollowStatus instead.
func (c *Client) StatusDelta(ctx context.Context, metrics, resync bool) (*StatusDelta, error) {
	reply, err := c.roundTrip(ctx, http.MethodGet, statusPath(metrics, true, resync), nil, KindStatusDelta)
	if err != nil {
		return nil, err
	}
	return reply.(*StatusDelta), nil
}

// FollowStatus fetches the node's status through a delta follower: a
// delta frame on the steady path, a full resync frame when the
// follower is unsynchronized, and one automatic resync retry when a
// delta frame turns out inapplicable (missed revision, restarted
// agent, foreign delta version). Transport failures reset the follower
// — the lost response also lost the delta it carried.
func (c *Client) FollowStatus(ctx context.Context, f *StatusFollower, metrics bool) (*NodeStatus, error) {
	resync := !f.Synced()
	d, err := c.StatusDelta(ctx, metrics, resync)
	if err != nil {
		f.Reset()
		return nil, err
	}
	st, err := f.Apply(d)
	if err == nil {
		return st, nil
	}
	if resync {
		return nil, err
	}
	// The delta chain broke; one full frame re-anchors it.
	d, err = c.StatusDelta(ctx, metrics, true)
	if err != nil {
		f.Reset()
		return nil, err
	}
	return f.Apply(d)
}

// Lease extends a budget grant to the node.
func (c *Client) Lease(ctx context.Context, g *LeaseGrant) (*LeaseAck, error) {
	reply, err := c.roundTrip(ctx, http.MethodPost, PathPrefix+"lease", g, KindLeaseAck)
	if err != nil {
		return nil, err
	}
	return reply.(*LeaseAck), nil
}

// Reconfigure applies a live configuration change to the node's daemon.
func (c *Client) Reconfigure(ctx context.Context, rc *Reconfigure) (*ReconfigureAck, error) {
	reply, err := c.roundTrip(ctx, http.MethodPost, PathPrefix+"reconfigure", rc, KindReconfigureAck)
	if err != nil {
		return nil, err
	}
	return reply.(*ReconfigureAck), nil
}

// Drain toggles the node's drain mode.
func (c *Client) Drain(ctx context.Context, on bool) (*DrainAck, error) {
	reply, err := c.roundTrip(ctx, http.MethodPost, PathPrefix+"drain", &Drain{On: on}, KindDrainAck)
	if err != nil {
		return nil, err
	}
	return reply.(*DrainAck), nil
}

// CoordClient speaks the coordinator side of the protocol — how nodes
// register themselves and operators inspect the room.
type CoordClient struct {
	base string
	http *http.Client
}

// NewCoordClient builds a client for a coordinator's address.
func NewCoordClient(addr string) *CoordClient {
	return &CoordClient{base: normalize(addr), http: http.DefaultClient}
}

func (c *CoordClient) roundTrip(ctx context.Context, method, path string, msg any, want string) (any, error) {
	nc := Client{base: c.base, http: c.http}
	return nc.roundTrip(ctx, method, path, msg, want)
}

// Register announces a node to the coordinator.
func (c *CoordClient) Register(ctx context.Context, node, addr string) (*RegisterAck, error) {
	reply, err := c.roundTrip(ctx, http.MethodPost, ClusterPrefix+"register", &Register{Node: node, Addr: addr}, KindRegisterAck)
	if err != nil {
		return nil, err
	}
	return reply.(*RegisterAck), nil
}

// Heartbeat keeps a node's registration alive.
func (c *CoordClient) Heartbeat(ctx context.Context, node string) (*HeartbeatAck, error) {
	reply, err := c.roundTrip(ctx, http.MethodPost, ClusterPrefix+"heartbeat", &Heartbeat{Node: node}, KindHeartbeatAck)
	if err != nil {
		return nil, err
	}
	return reply.(*HeartbeatAck), nil
}
