package fednet

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"fedmigr/internal/core"
	"fedmigr/internal/data"
	"fedmigr/internal/faults"
	"fedmigr/internal/nn"
	"fedmigr/internal/telemetry"
)

// ClientConfig parameterizes a client node.
type ClientConfig struct {
	// ServerAddr is the parameter server's address.
	ServerAddr string
	// ListenAddr is where this client accepts peer model transfers
	// (default "127.0.0.1:0").
	ListenAddr string
	// IOTimeout bounds every blocking frame read/write. Inbound peer
	// transfers are waited for at most IOTimeout/2, so a sender whose
	// transfer failed cannot stall the receiver past the server's own
	// per-phase deadline. Default 30s.
	IOTimeout time.Duration
	// JobID names the fleet job this client trains for. It rides the Hello
	// frame; a server serving a different job turns the registration away.
	// Empty joins the legacy single-job session.
	JobID string
	// DialRetries is the number of re-attempts after a failed dial
	// (server registration and C2C transfers), each preceded by
	// exponential backoff with deterministic jitter. Default 3; negative
	// disables retries.
	DialRetries int
	// RetryBackoff is the base backoff before the first retry (default
	// 50ms, doubling per attempt, capped at IOTimeout).
	RetryBackoff time.Duration
	// Faults, when non-nil, injects this node's share of a fault plan:
	// scheduled crash, severed peer links, flaky wire behavior. Production
	// nodes leave it nil.
	Faults *faults.NodeFaults
	// Telemetry, when non-nil, records RPC latency histograms and
	// per-message-type byte/count metrics under role=client.
	Telemetry *telemetry.Telemetry
}

func (c ClientConfig) withDefaults() ClientConfig {
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

// Client is a FedMigr edge node: it trains every model currently hosted on
// its local dataset, ships completion signals to the server, executes
// migration orders by sending models directly to peers, and uploads hosted
// models at aggregation. A peer that cannot be reached makes the client
// keep the ordered model and report the fallback to the server instead of
// aborting the session.
type Client struct {
	cfg     ClientConfig
	dataset *data.Dataset
	factory core.ModelFactory

	id       int
	k        int
	rounds   int
	aggEvery int
	tau      int
	batch    int
	lr       float64

	conn net.Conn
	ln   net.Listener
	nm   *netMetrics

	// hosted maps model id → model instance.
	hosted map[int]*nn.Sequential
	opts   map[int]*nn.SGD
	mu     sync.Mutex
	closed bool
	// peers tracks live inbound transfer connections so Close unblocks a
	// goroutine parked reading one.
	peers map[net.Conn]struct{}
	// free holds replicas this client no longer hosts — delivered to a peer,
	// or superseded by the next GlobalModel — for the next install to reuse
	// instead of calling factory(). Replicas are interchangeable: every
	// persistent tensor is a learnable parameter in Params(), which the
	// install overwrites, and layer-owned step buffers carry nothing from
	// one batch to the next (nn.Layer's rule). Dropout's private RNG is the
	// one exception; no factory in the tree builds one.
	// Guarded by mu: the inbound-transfer goroutine takes replicas while the
	// main loop retires them.
	free []*nn.Sequential

	// enc is the main loop's encode buffer: each outbound model is
	// marshalled into it and written before the next one is. rd and inRd are
	// the read buffers of the server connection and of the inbound-transfer
	// loop (see frameReader).
	enc      []byte
	rd, inRd frameReader

	// Epochs counts local epochs run (instrumentation).
	Epochs int
	// Migrations counts models sent to peers (instrumentation).
	Migrations int
	// Retries counts dial re-attempts (instrumentation).
	Retries int
	// Fallbacks counts models kept locally after an undeliverable
	// migration order (instrumentation).
	Fallbacks int
	// DroppedUploads counts aggregation uploads abandoned because the
	// client's edge aggregator was unreachable (instrumentation).
	DroppedUploads int
	// Left reports that this client departed gracefully by plan, shipping
	// its in-flight training state to the server (instrumentation).
	Left bool
	// Adopted counts TrainState blobs this client adopted from departing
	// peers and resumed locally (instrumentation).
	Adopted int
}

// NewClient builds a node around its local dataset and the shared model
// factory.
func NewClient(cfg ClientConfig, dataset *data.Dataset, factory core.ModelFactory) (*Client, error) {
	cfg = cfg.withDefaults()
	if dataset == nil || dataset.Len() == 0 {
		return nil, fmt.Errorf("fednet: client needs a non-empty dataset")
	}
	if factory == nil {
		return nil, fmt.Errorf("fednet: client needs a model factory")
	}
	if cfg.ServerAddr == "" {
		return nil, fmt.Errorf("fednet: client needs a server address")
	}
	return &Client{
		cfg: cfg, dataset: dataset, factory: factory,
		hosted: make(map[int]*nn.Sequential),
		opts:   make(map[int]*nn.SGD),
		peers:  make(map[net.Conn]struct{}),
		nm:     newNetMetrics(cfg.Telemetry, "client"),
	}, nil
}

// ID returns the server-assigned client id (valid after Run connects).
func (c *Client) ID() int { return c.id }

// Close interrupts a running client from any goroutine: it closes the
// server connection, the peer listener and every live peer connection,
// unblocking any goroutine parked in a frame read so Run returns promptly
// (with an error if mid-session). Close is idempotent.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	if c.conn != nil {
		_ = c.conn.Close()
	}
	if c.ln != nil {
		_ = c.ln.Close()
	}
	for p := range c.peers {
		_ = p.Close()
	}
}

// isClosed reports whether Close has been called.
func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// trackPeer registers a live peer connection for Close; it reports false
// (and closes the conn) when the client is already shut down.
func (c *Client) trackPeer(conn net.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		_ = conn.Close()
		return false
	}
	c.peers[conn] = struct{}{}
	return true
}

// untrackPeer closes and forgets a peer connection.
func (c *Client) untrackPeer(conn net.Conn) {
	_ = conn.Close()
	c.mu.Lock()
	delete(c.peers, conn)
	c.mu.Unlock()
}

// dialRetry dials addr with exponential backoff + jitter. peer is the
// destination client id for C2C transfers (-1 for the server); a link the
// fault plan severed fails every attempt without touching the network.
func (c *Client) dialRetry(addr string, peer int) (net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.DialRetries; attempt++ {
		if attempt > 0 {
			c.Retries++
			c.nm.incRetry()
			time.Sleep(faults.Backoff(c.cfg.RetryBackoff, c.cfg.IOTimeout, int64(c.id)<<8|int64(peer&0xff), attempt))
		}
		if c.isClosed() {
			return nil, fmt.Errorf("fednet: client closed while dialing %s", addr)
		}
		if c.cfg.Faults.PeerDown(peer) {
			lastErr = fmt.Errorf("fednet: dial %s: %w", addr, faults.ErrInjected)
			continue
		}
		conn, err := net.DialTimeout("tcp", addr, c.cfg.IOTimeout)
		if err == nil {
			return c.wrap(conn, peer), nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// wrap applies the fault plan's wire behavior to a peer connection.
func (c *Client) wrap(conn net.Conn, peer int) net.Conn {
	if peer >= 0 && c.cfg.Faults != nil && c.cfg.Faults.Wire != nil {
		return faults.WrapConn(conn, *c.cfg.Faults.Wire)
	}
	return conn
}

// Run connects, registers, and participates until the server shuts the
// session down.
func (c *Client) Run() error {
	ln, err := net.Listen("tcp", c.cfg.ListenAddr)
	if err != nil {
		return fmt.Errorf("fednet: client listen: %w", err)
	}
	c.mu.Lock()
	c.ln = ln
	c.mu.Unlock()
	// Shutdown-path closes: the session's outcome is already decided by the
	// protocol error (or clean MsgShutdown), so a close error here has
	// nothing to add and is deliberately discarded.
	defer func() { _ = ln.Close() }()

	conn, err := c.dialRetry(c.cfg.ServerAddr, -1)
	if err != nil {
		_ = ln.Close()
		return fmt.Errorf("fednet: dial server: %w", err)
	}
	c.mu.Lock()
	c.conn = conn
	c.mu.Unlock()
	defer func() { _ = conn.Close() }()

	setDeadline(conn, c.cfg.IOTimeout)
	if err := c.nm.write(conn, &Message{
		Type:       MsgHello,
		JobID:      c.cfg.JobID,
		ListenAddr: ln.Addr().String(),
		NumSamples: c.dataset.Len(),
		Dist:       c.dataset.LabelDistribution(),
	}); err != nil {
		return err
	}
	welcome, err := c.nm.read(&c.rd, conn)
	if err != nil {
		return err
	}
	if welcome.Type == MsgShutdown {
		return fmt.Errorf("fednet: server rejected registration: it serves job %q, this client trains job %q",
			welcome.JobID, c.cfg.JobID)
	}
	if welcome.Type != MsgWelcome {
		return typeMismatch(welcome.Type, MsgWelcome)
	}
	if welcome.JobID != c.cfg.JobID {
		return fmt.Errorf("fednet: welcome for job %q, this client trains job %q", welcome.JobID, c.cfg.JobID)
	}
	c.id = welcome.ClientID
	c.k = welcome.K
	c.rounds = welcome.Rounds
	c.aggEvery = welcome.AggEvery
	c.tau = welcome.Tau
	c.batch = welcome.BatchSize
	c.lr = welcome.LR

	// A late joiner that just installed its warm handoff may wait far
	// longer than one frame timeout for the next distribution, so the read
	// after a warm frame runs without a deadline.
	warmWait := false
	for {
		if warmWait {
			clearDeadline(conn)
		} else {
			setDeadline(conn, c.cfg.IOTimeout)
		}
		m, err := c.nm.read(&c.rd, conn)
		if err != nil {
			return err
		}
		warmWait = false
		var herr error
		switch m.Type {
		case MsgGlobalModel:
			// A warm handoff gives a late joiner live weights; it neither
			// trains nor signals until promoted at the next distribution.
			if herr = c.install(m); herr == nil && !m.Warm {
				herr = c.localUpdateAndSignal()
			}
			warmWait = m.Warm && herr == nil
		case MsgMigrationOrder:
			herr = c.onMigration(m)
		case MsgAggregateOrder:
			herr = c.onAggregate(m)
		case MsgMigrateState:
			herr = c.onAdopt(m)
		case MsgShutdown:
			return nil
		default:
			return fmt.Errorf("fednet: client %d: unexpected %v", c.id, m.Type)
		}
		if errors.Is(herr, faults.ErrLeft) {
			// Graceful departure: the in-flight state is already on its way
			// to an adopter; the session ends cleanly for this node.
			return nil
		}
		if herr != nil {
			return herr
		}
	}
}

// install makes the frame's global model this client's only hosted
// replica, retiring whatever it hosted before to the free list.
func (c *Client) install(m *Message) error {
	c.mu.Lock()
	for _, old := range c.hosted {
		c.free = append(c.free, old)
	}
	clear(c.hosted)
	clear(c.opts)
	c.mu.Unlock()
	model := c.replica()
	if err := model.UnmarshalParams(m.Params); err != nil {
		return err
	}
	c.mu.Lock()
	c.hosted[m.ModelID] = model
	c.opts[m.ModelID] = nn.NewSGD(c.lr)
	c.mu.Unlock()
	return nil
}

// replica returns a model to load parameters into: a retired one when the
// free list has any, a fresh build otherwise.
func (c *Client) replica() *nn.Sequential {
	c.mu.Lock()
	n := len(c.free)
	if n == 0 {
		c.mu.Unlock()
		return c.factory()
	}
	model := c.free[n-1]
	c.free = c.free[:n-1]
	c.mu.Unlock()
	return model
}

// localUpdateAndSignal trains every hosted model for τ epochs and sends
// the completion signal. A node whose fault plan says it crashes here
// tears itself down instead, simulating a device dropping out mid-round; a
// node whose plan says it leaves departs gracefully, shipping its
// in-flight training state to the server for adoption.
func (c *Client) localUpdateAndSignal() error {
	loss, remaining := c.trainHosted()
	if c.cfg.Faults.CrashDue(c.Epochs) {
		c.Close()
		return fmt.Errorf("fednet: client %d after %d epochs: %w", c.id, c.Epochs, faults.ErrCrashed)
	}
	if remaining >= 0 {
		return c.leave(loss, remaining)
	}
	setDeadline(c.conn, c.cfg.IOTimeout)
	return c.nm.write(c.conn, &Message{Type: MsgCompletion, Loss: loss})
}

// hostedIDs returns the hosted model ids in ascending order. The caller
// must hold mu.
func (c *Client) hostedIDs() []int {
	ids := make([]int, 0, len(c.hosted))
	for id := range c.hosted {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// trainHosted runs τ epoch sweeps of mini-batch SGD over every hosted
// model and returns the mean batch loss. The second result is -1 for a
// full phase, or — when the fault plan's departure point fell inside the
// phase — the number of epoch sweeps left unrun, which the leave path
// converts into the migrated batch plan.
func (c *Client) trainHosted() (float64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := c.hostedIDs()
	lossSum, n := 0.0, 0
	avg := func() float64 {
		if n == 0 {
			return 0
		}
		return lossSum / float64(n)
	}
	for e := 0; e < c.tau; e++ {
		for _, id := range ids {
			model, opt := c.hosted[id], c.opts[id]
			for lo := 0; lo < c.dataset.Len(); lo += c.batch {
				hi := lo + c.batch
				if hi > c.dataset.Len() {
					hi = c.dataset.Len()
				}
				lossSum += c.trainBatch(model, opt, lo, hi)
				n++
			}
			c.Epochs++
		}
		if c.cfg.Faults.LeaveDue(c.Epochs) {
			return avg(), c.tau - (e + 1)
		}
	}
	return avg(), -1
}

// leave is the graceful-departure half of live migration: the client
// captures each hosted replica's in-flight TrainState — parameters,
// optimizer momentum, and the batch plan for the phase's remaining epoch
// sweeps — ships the blobs to the server in place of its completion
// signal, and exits the session cleanly.
func (c *Client) leave(loss float64, remaining int) error {
	states, err := c.captureStates(remaining)
	if err != nil {
		return err
	}
	setDeadline(c.conn, c.cfg.IOTimeout)
	if err := c.nm.write(c.conn, &Message{
		Type: MsgMigrateState, Epoch: c.Epochs, Loss: loss, States: states,
	}); err != nil {
		return err
	}
	c.Left = true
	c.nm.incLeave()
	return fmt.Errorf("fednet: client %d departing after %d epochs: %w", c.id, c.Epochs, faults.ErrLeft)
}

// captureStates snapshots every hosted replica into a versioned TrainState
// blob. The batch plan is the phase's remaining epoch sweeps concatenated
// (batch index order, cursor 0), so the adopter resumes exactly the work
// this node left unrun.
func (c *Client) captureStates(remaining int) ([]StateBlob, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	nb := (c.dataset.Len() + c.batch - 1) / c.batch
	order := make([]int, 0, remaining*nb)
	for r := 0; r < remaining; r++ {
		for b := 0; b < nb; b++ {
			order = append(order, b)
		}
	}
	var states []StateBlob
	for _, id := range c.hostedIDs() {
		ts := core.CaptureTrainState(id, c.Epochs, 0, order, 0, 0, c.hosted[id], c.opts[id])
		blob, err := ts.Marshal()
		if err != nil {
			return nil, err
		}
		states = append(states, StateBlob{ModelID: id, Blob: blob})
	}
	return states, nil
}

// onAdopt installs migrated TrainStates from a departed peer and finishes
// their remaining batch plan on this client's own shard — the documented
// divergence from the simulator's bit-exact rescue, where the resumed
// batches still come from the victim's data: a real adopter only has its
// local data (data locality), so the remaining batch indices are replayed
// against this node's shard instead.
func (c *Client) onAdopt(m *Message) error {
	for _, sb := range m.States {
		ts, err := core.UnmarshalTrainState(sb.Blob)
		if err != nil {
			return fmt.Errorf("fednet: client %d adopting model %d: %w", c.id, sb.ModelID, err)
		}
		model := c.replica()
		opt := nn.NewSGD(c.lr)
		if err := ts.Restore(model, opt); err != nil {
			return fmt.Errorf("fednet: client %d adopting model %d: %w", c.id, sb.ModelID, err)
		}
		c.resumeBatches(model, opt, ts.Order[ts.BatchCursor:])
		c.mu.Lock()
		c.hosted[ts.ModelID] = model
		c.opts[ts.ModelID] = opt
		c.mu.Unlock()
		c.Adopted++
		c.nm.incStateMigration()
	}
	return nil
}

// resumeBatches replays a migrated batch plan over this client's shard.
// Indices past the local shard (the leaver's was larger) are skipped.
func (c *Client) resumeBatches(model *nn.Sequential, opt *nn.SGD, order []int) {
	for _, b := range order {
		lo := b * c.batch
		if lo < 0 || lo >= c.dataset.Len() {
			continue
		}
		hi := lo + c.batch
		if hi > c.dataset.Len() {
			hi = c.dataset.Len()
		}
		c.trainBatch(model, opt, lo, hi)
	}
}

// trainBatch runs one mini-batch SGD step over samples [lo, hi) of the
// client's shard, through the model's own batch and gradient buffers (the
// gradients are +0 between steps, see nn.SGD.Step), and returns the batch
// loss.
func (c *Client) trainBatch(model *nn.Sequential, opt *nn.SGD, lo, hi int) float64 {
	ch, h, w := c.dataset.Spec()
	x := model.Input(hi-lo, ch, h, w)
	y := c.dataset.BatchInto(x.Data(), lo, hi)
	loss, grad := model.CrossEntropy(model.Forward(x, true), y)
	model.Backward(grad)
	opt.Step(model)
	return loss
}

// receiveInbound accepts up to `want` peer transfers, bounded overall by
// half the I/O timeout: a sender whose transfer failed will never dial, so
// the receiver resolves the round by deadline instead of blocking the
// whole session. A transfer that errors mid-frame is skipped; whatever
// arrived intact is returned.
func (c *Client) receiveInbound(want int) (map[int]*nn.Sequential, error) {
	got := make(map[int]*nn.Sequential, want)
	if want == 0 {
		return got, nil
	}
	type deadliner interface{ SetDeadline(time.Time) error }
	dl, hasDeadline := c.ln.(deadliner)
	if hasDeadline {
		_ = dl.SetDeadline(time.Now().Add(c.cfg.IOTimeout / 2))
		defer dl.SetDeadline(time.Time{})
	}
	for attempts := 0; len(got) < want && attempts < want; attempts++ {
		conn, err := c.ln.Accept()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				c.nm.incTimeout()
				return got, nil // senders that never came are resolved by the server
			}
			return got, fmt.Errorf("fednet: client %d accept transfer: %w", c.id, err)
		}
		if !c.trackPeer(conn) {
			return got, fmt.Errorf("fednet: client %d closed during transfer", c.id)
		}
		setDeadline(conn, c.cfg.IOTimeout/2)
		tm, err := c.nm.expect(&c.inRd, conn, MsgModelTransfer)
		c.untrackPeer(conn)
		if err != nil {
			continue // broken transfer: the server will mark the model lost
		}
		model := c.replica()
		if err := model.UnmarshalParams(tm.Params); err != nil {
			continue
		}
		got[tm.ModelID] = model
	}
	return got, nil
}

// onMigration ships ordered models to peers, receives the announced number
// of inbound models, confirms (reporting undeliverable and received model
// ids), and runs the next local-updating phase.
func (c *Client) onMigration(m *Message) error {
	// Receive inbound transfers concurrently with outbound sends so two
	// clients exchanging models cannot deadlock.
	type inResult struct {
		models map[int]*nn.Sequential
		err    error
	}
	inCh := make(chan inResult, 1)
	go func() {
		got, err := c.receiveInbound(m.Inbound)
		inCh <- inResult{got, err}
	}()

	// Outbound sends. An unreachable destination keeps the model here;
	// the fallback is reported to the server via Kept.
	var kept []int
	for _, o := range m.Orders {
		c.mu.Lock()
		model, ok := c.hosted[o.ModelID]
		c.mu.Unlock()
		if !ok {
			return fmt.Errorf("fednet: client %d ordered to send model %d it does not host", c.id, o.ModelID)
		}
		c.enc = model.AppendParams(c.enc[:0])
		if err := c.sendModel(o, c.enc); err != nil {
			kept = append(kept, o.ModelID)
			c.Fallbacks++
			continue
		}
		c.mu.Lock()
		delete(c.hosted, o.ModelID)
		delete(c.opts, o.ModelID)
		c.free = append(c.free, model)
		c.mu.Unlock()
		c.Migrations++
	}

	in := <-inCh
	if in.err != nil {
		return in.err
	}
	received := make([]int, 0, len(in.models))
	c.mu.Lock()
	for id, model := range in.models {
		c.hosted[id] = model
		c.opts[id] = nn.NewSGD(c.lr)
		received = append(received, id)
	}
	c.mu.Unlock()
	sort.Ints(received)
	sort.Ints(kept)

	setDeadline(c.conn, c.cfg.IOTimeout)
	if err := c.nm.write(c.conn, &Message{Type: MsgTransferDone, Kept: kept, Received: received}); err != nil {
		return err
	}
	return c.localUpdateAndSignal()
}

// sendModel delivers one ordered model to its destination peer.
func (c *Client) sendModel(o Order, params []byte) error {
	peer, err := c.dialRetry(o.DestAddr, o.DestID)
	if err != nil {
		return err
	}
	// The write's own error already decides delivery; the close result is
	// deliberately dropped.
	defer func() { _ = peer.Close() }()
	setDeadline(peer, c.cfg.IOTimeout)
	return c.nm.write(peer, &Message{Type: MsgModelTransfer, ModelID: o.ModelID, Params: params})
}

// onAggregate uploads every hosted model — to the server directly, or,
// when the order carries an AggAddr, to this client's LAN edge aggregator
// (the hierarchical path: the server then only ever sees the aggregator's
// partial sums). An unreachable aggregator drops this client's uploads for
// the round instead of failing the session: the aggregator resolves the
// missing count by deadline and the server renormalizes over what arrived,
// the same degraded-membership semantics as a crashed client.
func (c *Client) onAggregate(order *Message) error {
	c.mu.Lock()
	ids := c.hostedIDs() // ascending: a stable order keeps server reads deterministic
	c.mu.Unlock()

	up, upstream := c.conn, "server"
	if order.AggAddr != "" {
		aggConn, err := c.dialRetry(order.AggAddr, -1)
		if err != nil {
			c.DroppedUploads += len(ids)
			c.nm.incLostModel()
			return nil // resolved upstream by the aggregator's deadline
		}
		// One upload session per round: the aggregator reads until EOF.
		defer func() { _ = aggConn.Close() }()
		up, upstream = aggConn, "aggregator"
	}
	for _, id := range ids {
		c.mu.Lock()
		model := c.hosted[id]
		c.mu.Unlock()
		c.enc = model.AppendParams(c.enc[:0])
		setDeadline(up, c.cfg.IOTimeout)
		if err := c.nm.write(up, &Message{
			Type: MsgLocalUpdate, ModelID: id, Params: c.enc,
			Weight: float64(c.dataset.Len()),
		}); err != nil {
			if upstream == "aggregator" {
				// A broken aggregator link costs this round's remaining
				// uploads, not the session: the server conn is untouched.
				c.DroppedUploads++
				c.nm.incLostModel()
				return nil
			}
			return err
		}
	}
	return nil
}
