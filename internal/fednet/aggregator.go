package fednet

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedmigr/internal/agg"
	"fedmigr/internal/core"
	"fedmigr/internal/faults"
	"fedmigr/internal/nn"
	"fedmigr/internal/telemetry"
	"fedmigr/internal/tensor"
)

// AggregatorConfig parameterizes an edge aggregator node.
type AggregatorConfig struct {
	// ServerAddr is the parameter server's address.
	ServerAddr string
	// ListenAddr is where clients upload models (default "127.0.0.1:0").
	ListenAddr string
	// IOTimeout bounds every blocking frame read/write and the per-round
	// wait for uploads: a round whose stragglers never arrive resolves by
	// deadline and forwards whatever did. Default 30s.
	IOTimeout time.Duration
	// JobID names the fleet job this aggregator folds uploads for; it must
	// match the server's. Empty joins the legacy single-job session.
	JobID string
	// DialRetries / RetryBackoff mirror ClientConfig for the server dial.
	DialRetries  int
	RetryBackoff time.Duration
	// Telemetry, when non-nil, records wire metrics under role=aggregator.
	Telemetry *telemetry.Telemetry
}

func (c AggregatorConfig) withDefaults() AggregatorConfig {
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.IOTimeout == 0 {
		c.IOTimeout = 30 * time.Second
	}
	if c.DialRetries == 0 {
		c.DialRetries = 3
	}
	if c.DialRetries < 0 {
		c.DialRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	return c
}

// Aggregator is the LAN tier of hierarchical aggregation: it accepts its
// group's model uploads, folds each one into a streaming accumulator the
// moment it arrives (internal/agg), and forwards only the drained partial
// sums — O(log K) tree nodes — upstream. The server reproduces the exact
// bits of a flat aggregation by folding those nodes, so interposing
// aggregators changes traffic and memory, never the model. Peak memory on
// the aggregator is O(log K) model vectors regardless of group size.
type Aggregator struct {
	cfg AggregatorConfig
	// shape lends its architecture to the upload check; its weights are
	// never read or written, so upload goroutines share it.
	shape *nn.Sequential

	id int
	k  int

	ln   net.Listener
	conn net.Conn
	nm   *netMetrics

	mu      sync.Mutex
	closed  bool
	uplinks map[net.Conn]struct{}

	// Rounds, Uploads, NodesForwarded and PeakLive are instrumentation:
	// rounds served, uploads folded, partial-sum nodes sent upstream, and
	// the high-water mark of live model buffers across all rounds. Updated
	// under mu at the end of each round — read them via Snapshot while Run
	// is in flight, or directly once it has returned.
	Rounds         int
	Uploads        int
	NodesForwarded int
	PeakLive       int
}

// Snapshot returns (rounds served, uploads folded, nodes forwarded, peak
// live buffers) under the lock, safe to call concurrently with Run.
func (a *Aggregator) Snapshot() (rounds, uploads, nodes, peakLive int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.Rounds, a.Uploads, a.NodesForwarded, a.PeakLive
}

// NewAggregator builds an edge aggregator around the shared model factory
// (it needs the architecture to check uploads against, never the training
// data).
func NewAggregator(cfg AggregatorConfig, factory core.ModelFactory) (*Aggregator, error) {
	cfg = cfg.withDefaults()
	if factory == nil {
		return nil, fmt.Errorf("fednet: aggregator needs a model factory")
	}
	if cfg.ServerAddr == "" {
		return nil, fmt.Errorf("fednet: aggregator needs a server address")
	}
	return &Aggregator{
		cfg: cfg, shape: factory(),
		uplinks: make(map[net.Conn]struct{}),
		nm:      newNetMetrics(cfg.Telemetry, "aggregator"),
	}, nil
}

// ID returns the server-assigned aggregator id (valid after Run connects).
func (a *Aggregator) ID() int { return a.id }

// Close interrupts a running aggregator from any goroutine; idempotent.
func (a *Aggregator) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.closed = true
	if a.conn != nil {
		_ = a.conn.Close()
	}
	if a.ln != nil {
		_ = a.ln.Close()
	}
	for c := range a.uplinks {
		_ = c.Close()
	}
}

func (a *Aggregator) isClosed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

// trackUplink registers a live client upload connection for Close.
func (a *Aggregator) trackUplink(c net.Conn) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		_ = c.Close()
		return false
	}
	a.uplinks[c] = struct{}{}
	return true
}

func (a *Aggregator) untrackUplink(c net.Conn) {
	_ = c.Close()
	a.mu.Lock()
	delete(a.uplinks, c)
	a.mu.Unlock()
}

// Run connects, registers, and serves rounds until the server shuts the
// session down.
func (a *Aggregator) Run() error {
	ln, err := net.Listen("tcp", a.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("fednet: aggregator listen: %w", err)
	}
	a.mu.Lock()
	a.ln = ln
	a.mu.Unlock()
	defer func() { _ = ln.Close() }()

	conn, err := a.dialServer()
	if err != nil {
		return fmt.Errorf("fednet: aggregator dial server: %w", err)
	}
	a.mu.Lock()
	a.conn = conn
	a.mu.Unlock()
	defer func() { _ = conn.Close() }()

	setDeadline(conn, a.cfg.IOTimeout)
	if err := a.nm.write(conn, &Message{Type: MsgAggHello, JobID: a.cfg.JobID, ListenAddr: ln.Addr().String()}); err != nil {
		return err
	}
	var rd frameReader
	welcome, err := a.nm.read(&rd, conn)
	if err != nil {
		return err
	}
	if welcome.Type == MsgShutdown {
		return fmt.Errorf("fednet: server rejected registration: it serves job %q, this aggregator serves job %q",
			welcome.JobID, a.cfg.JobID)
	}
	if welcome.Type != MsgAggWelcome {
		return typeMismatch(welcome.Type, MsgAggWelcome)
	}
	if welcome.JobID != a.cfg.JobID {
		return fmt.Errorf("fednet: welcome for job %q, this aggregator serves job %q", welcome.JobID, a.cfg.JobID)
	}
	a.id = welcome.AggID
	a.k = welcome.K

	for {
		// Between rounds the aggregator idles until armed: clients train for
		// arbitrarily long, so the arming read carries no deadline. Close
		// unblocks it.
		setDeadline(conn, 0)
		m, err := a.nm.read(&rd, conn)
		if err != nil {
			if a.isClosed() {
				return nil // Close during the idle wait is an orderly shutdown
			}
			return err
		}
		switch m.Type {
		case MsgAggRound:
			if err := a.serveRound(m); err != nil {
				return err
			}
		case MsgShutdown:
			return nil
		default:
			return fmt.Errorf("fednet: aggregator %d: unexpected %v", a.id, m.Type)
		}
	}
}

// dialServer dials with the same backoff discipline clients use.
func (a *Aggregator) dialServer() (net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt <= a.cfg.DialRetries; attempt++ {
		if attempt > 0 {
			a.nm.incRetry()
			time.Sleep(faults.Backoff(a.cfg.RetryBackoff, a.cfg.IOTimeout, int64(a.id)<<8|0xa9, attempt))
		}
		if a.isClosed() {
			return nil, fmt.Errorf("fednet: aggregator closed while dialing")
		}
		conn, err := net.DialTimeout("tcp", a.cfg.ServerAddr, a.cfg.IOTimeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// serveRound collects the round's uploads and forwards the partial sums.
// Each accepted connection is one client's upload session: every
// MsgLocalUpdate on it folds into the shared accumulator at its model-id
// slot, decoded from the frame straight into an accumulator leaf, so the
// aggregator never holds more than the reduction frontier plus one
// in-flight frame per connection. The
// round resolves when the expected upload count is reached or IOTimeout
// passes — missing uploads simply leave their slots out of the partial
// sums, which the server's accumulator renormalizes over.
func (a *Aggregator) serveRound(m *Message) error {
	acc := agg.New(a.k, a.shape.NumParams())
	weight := func(slot int) float64 {
		if slot < len(m.Weights) {
			return m.Weights[slot]
		}
		return 1
	}
	var (
		foldMu sync.Mutex
		ids    []int
		got    atomic.Int64
		wg     sync.WaitGroup
	)
	type deadliner interface{ SetDeadline(time.Time) error }
	dl, pokable := a.ln.(deadliner)
	deadline := time.Now().Add(a.cfg.IOTimeout)
	if pokable {
		_ = dl.SetDeadline(deadline)
		defer dl.SetDeadline(time.Time{})
	}
	for int(got.Load()) < m.Expected {
		conn, err := a.ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if int(got.Load()) >= m.Expected {
					break // poked awake: every expected upload arrived
				}
				if time.Now().Before(deadline) {
					continue // spurious wake; keep accepting
				}
				a.nm.incTimeout()
				break // stragglers resolved by deadline
			}
			if a.isClosed() {
				return fmt.Errorf("fednet: aggregator %d closed mid-round", a.id)
			}
			break
		}
		if !a.trackUplink(conn) {
			return fmt.Errorf("fednet: aggregator %d closed mid-round", a.id)
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer a.untrackUplink(conn)
			var rd frameReader
			for {
				setDeadline(conn, a.cfg.IOTimeout)
				um, err := a.nm.read(&rd, conn)
				if err != nil {
					return // EOF after the client's last upload, or a broken peer
				}
				if um.Type != MsgLocalUpdate || um.ModelID < 0 || um.ModelID >= a.k {
					return
				}
				leaf := acc.Leaf()
				if err := a.shape.UnmarshalParamsInto(um.Params, leaf); err != nil {
					tensor.PutScratch(leaf)
					return
				}
				foldMu.Lock()
				if err := acc.AddLeaf(um.ModelID, leaf, weight(um.ModelID)); err != nil {
					foldMu.Unlock()
					return // duplicate slot (AddLeaf released the leaf): drop it
				}
				ids = append(ids, um.ModelID)
				foldMu.Unlock()
				if got.Add(1) == int64(m.Expected) && pokable {
					_ = dl.SetDeadline(time.Now()) // unblock the accept loop
				}
			}
		}(conn)
	}
	wg.Wait()

	nodes := acc.Drain()
	wire := make([]AggNode, len(nodes))
	for i, nd := range nodes {
		wire[i] = AggNode{
			Start: nd.Start, Level: nd.Level, Count: nd.Count, Weight: nd.Weight,
			Vec: append([]float64(nil), nd.Vec.Data()...),
		}
		agg.Release(nd)
	}
	sort.Ints(ids)
	a.mu.Lock()
	a.Rounds++
	a.Uploads += len(ids)
	a.NodesForwarded += len(wire)
	if p := acc.PeakLive(); p > a.PeakLive {
		a.PeakLive = p
	}
	a.mu.Unlock()
	setDeadline(a.conn, a.cfg.IOTimeout)
	return a.nm.write(a.conn, &Message{
		Type: MsgPartialSum, Round: m.Round, Nodes: wire, UpdateIDs: ids,
	})
}
