package fednet

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"fedmigr/internal/agg"
	"fedmigr/internal/core"
	"fedmigr/internal/nn"
	"fedmigr/internal/stats"
	"fedmigr/internal/telemetry"
	"fedmigr/internal/tensor"
)

// ServerConfig parameterizes the parameter server.
type ServerConfig struct {
	// JobID names the fleet job this session serves. Registrations whose
	// JobID differs are turned away with a Shutdown frame (and do not count
	// toward K), so several per-job servers can share one fleet of nodes
	// without cross-wiring. Empty runs the legacy single-job session.
	JobID string
	// K is the number of clients to wait for.
	K int
	// MaxClients caps the session's membership, K initial registrations
	// plus up to MaxClients-K mid-session joiners: once the session is
	// running, a late Hello is admitted into the next free slot, handed a
	// warm copy of the current global model, and enters the cohort at the
	// next round's distribution. MaxClients ≤ K (the default) runs a
	// closed-membership session that rejects extra registrations.
	MaxClients int
	// Rounds is G, the number of global iterations.
	Rounds int
	// AggEvery, Tau, BatchSize, LR are forwarded to clients in Welcome.
	AggEvery  int
	Tau       int
	BatchSize int
	LR        float64
	// IOTimeout bounds every blocking frame read/write. A client that does
	// not produce its expected frame within IOTimeout is declared dead and
	// excluded from the rest of the session instead of blocking it.
	// Default 30s.
	IOTimeout time.Duration
	// MinClients is the quorum: the session aborts only when fewer than
	// MinClients remain alive (default 1 — the round completes with
	// degraded membership as long as anyone survives).
	MinClients int
	// Aggregators is the number of edge aggregators the session registers.
	// When > 0 the upload path is hierarchical: clients upload to their
	// LAN aggregator (client c → aggregator c·A/K) and the server folds
	// only O(A·log K) partial sums per round — bit-identical to direct
	// uploads. 0 keeps the flat client→server path.
	Aggregators int
	// MaxConcurrentUploads bounds the goroutines (and in-flight decode
	// buffers) the direct upload path uses, so server memory per round is
	// O(MaxConcurrentUploads + log K) model vectors rather than O(K).
	// Default 16.
	MaxConcurrentUploads int
	// Telemetry, when non-nil, records RPC latency histograms,
	// per-message-type byte/count metrics, and fault-handling counters
	// (dead clients, reroutes, partial rounds) under role=server.
	Telemetry *telemetry.Telemetry
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
	if c.AggEvery <= 0 {
		c.AggEvery = 1
	}
	if c.Tau <= 0 {
		c.Tau = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.IOTimeout == 0 {
		c.IOTimeout = 30 * time.Second
	}
	if c.MinClients <= 0 {
		c.MinClients = 1
	}
	if c.Aggregators < 0 {
		c.Aggregators = 0
	}
	if c.MaxConcurrentUploads <= 0 {
		c.MaxConcurrentUploads = 16
	}
	if c.MaxClients < c.K {
		c.MaxClients = c.K
	}
	return c
}

// FaultStats counts the fault-handling actions one session performed.
type FaultStats struct {
	// DeadClients is the number of clients declared dead (timeout, EOF or
	// protocol error) and excluded from the session.
	DeadClients int
	// Reroutes counts migration orders that fell back to keeping the model
	// on its sender because the destination was dead or unreachable.
	Reroutes int
	// LostModels counts replicas lost in transit (neither the sender kept
	// them nor the receiver confirmed them).
	LostModels int
	// PartialRounds counts aggregations that completed with fewer model
	// uploads than expected, renormalizing weights over the survivors.
	PartialRounds int
	// Joins counts mid-session registrations admitted into the cohort.
	Joins int
	// Leaves counts graceful departures (a client that shipped its
	// in-flight state and exited, as opposed to a crash).
	Leaves int
	// StateMigrations counts in-flight TrainState blobs rerouted from a
	// departing client to a live adopter.
	StateMigrations int
}

// Server is the FedMigr parameter server: it registers K clients, drives
// the synchronous round workflow of Fig. 2, computes migration policies
// from the reported state, and aggregates uploaded models. Clients that
// crash, hang or lose connectivity mid-session are declared dead and the
// session continues with the survivors (partial aggregation); it aborts
// only when fewer than MinClients remain.
type Server struct {
	cfg      ServerConfig
	global   *nn.Sequential
	migrator core.Migrator
	ln       net.Listener
	nm       *netMetrics

	// Slot arrays are sized maxK up front so late joiners never reallocate
	// them under a running round. Ids < members are in play; the rest are
	// free slots for future joiners. rd[id] is the read buffer of conns[id]
	// (see frameReader); each phase reads a connection from one goroutine.
	conns   []net.Conn
	rd      []frameReader
	addrs   []string
	weights []float64

	// Aggregator tier (cfg.Aggregators > 0): upstream connections, upload
	// listen addresses, and liveness — guarded by mu like client state.
	aggConns []net.Conn
	aggRd    []frameReader
	aggAddrs []string
	aggAlive []bool

	// Liveness: mu guards alive/conns/closed/stats against concurrent
	// collect goroutines and cross-goroutine Close.
	mu     sync.Mutex
	alive  []bool
	closed bool
	fstats FaultStats

	// Dynamic membership (cfg.MaxClients > K). maxK is the slot-array
	// capacity; members is the number of slots in play, grown only at round
	// boundaries when pending joiners are promoted. acceptLate admits a
	// mid-session Hello under mu — assigning the next free id, stashing the
	// conn, and queueing a pendingJoin — but touches no per-round array:
	// those are written by the coordinator in promoteJoiners, so a running
	// round never races an arriving node. registered counts the seats handed
	// out so far, founders and joiners alike; unlike Alive it never falls.
	// warm is the current global model's serialized parameters, refreshed at
	// each distribution, handed to joiners so they start from live weights.
	// sealed rejects joins that arrive after the session's shutdown began.
	maxK       int
	members    int
	registered int
	pending    []pendingJoin
	warm       []byte
	sealed     bool
	// lateWG joins the acceptLate goroutine: Run closes the listener and
	// waits on it before returning, so no admission can race teardown.
	lateWG sync.WaitGroup
	// Test hooks, nil outside tests: beforeWelcome runs just before a
	// joiner's Welcome is written, beforeRound on the coordinator at each
	// round boundary, before joiners are promoted.
	beforeWelcome func()
	beforeRound   func(round int)

	// lost[m] marks a replica unusable for the current round: its host
	// died or it vanished in transit. Reset at every distribution.
	lost []bool

	// Policy state, mirroring the simulator's bookkeeping.
	loc        []int // model id → hosting client id
	clientDist []stats.Distribution
	effDist    []stats.Distribution
	effSeen    []float64
	lastLoss   float64
	prevLoss   float64
	epoch      int

	// History records the per-round average reported loss.
	History []float64
}

// NewServer creates a server around a model factory (every client must
// run the identical architecture) and a migration policy (nil migrator
// keeps every model in place, degrading FedMigr to periodic-averaging
// FedAvg).
func NewServer(cfg ServerConfig, factory core.ModelFactory, migrator core.Migrator) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.K <= 0 {
		return nil, fmt.Errorf("fednet: server needs K > 0")
	}
	if factory == nil {
		return nil, fmt.Errorf("fednet: server needs a model factory")
	}
	if migrator == nil {
		migrator = core.StayMigrator{}
	}
	return &Server{
		cfg: cfg, global: factory(), migrator: migrator,
		maxK: cfg.MaxClients, members: cfg.K,
		nm: newNetMetrics(cfg.Telemetry, "server"),
	}, nil
}

// pendingJoin is a mid-session registration awaiting promotion: the
// joiner's Hello payload, parked until the next round boundary.
type pendingJoin struct {
	id      int
	addr    string
	samples int
	dist    []float64
}

// Listen binds the server to addr (use "127.0.0.1:0" for an ephemeral
// port) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("fednet: listen: %w", err)
	}
	s.ln = ln
	return ln.Addr().String(), nil
}

// Close releases the server's listener and client connections. It is
// idempotent and safe to call from any goroutine: every connection is
// closed, so any goroutine parked in a frame read or write unblocks.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for _, c := range s.conns {
		if c != nil {
			_ = c.Close()
		}
	}
	for _, c := range s.aggConns {
		if c != nil {
			_ = c.Close()
		}
	}
}

// Stats returns the session's fault-handling counters.
func (s *Server) Stats() FaultStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fstats
}

// Alive returns the number of registered clients currently considered
// live. During registration it grows from 0 to K, so callers that need a
// deterministic client→id mapping can gate each connection on it.
func (s *Server) Alive() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, a := range s.alive {
		if a {
			n++
		}
	}
	return n
}

// AggregatorsAlive returns the number of registered, live aggregators.
// During registration it grows from 0 to cfg.Aggregators, so callers that
// need deterministic aggregator ids can gate each connection on it.
func (s *Server) AggregatorsAlive() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, a := range s.aggAlive {
		if a {
			n++
		}
	}
	return n
}

// GlobalModel returns the server's current global model.
func (s *Server) GlobalModel() *nn.Sequential { return s.global }

// isAlive reports client liveness under the lock.
func (s *Server) isAlive(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alive[id]
}

// markDead declares a client dead, closes its connection so nothing else
// blocks on it, and records the cause. Idempotent per client.
func (s *Server) markDead(id int, cause error) {
	s.mu.Lock()
	if !s.alive[id] {
		s.mu.Unlock()
		return
	}
	s.alive[id] = false
	s.fstats.DeadClients++
	conn := s.conns[id]
	s.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	s.nm.incDeadClient()
	var ne net.Error
	if errors.As(cause, &ne) && ne.Timeout() {
		s.nm.incTimeout()
	}
	s.cfg.Telemetry.Event("client_dead", "client", id, "epoch", s.epoch, "cause", fmt.Sprint(cause))
}

// quorumErr reports the unrecoverable loss of too many clients.
func (s *Server) quorumErr(phase string) error {
	return fmt.Errorf("fednet: %s: %d of %d clients alive, quorum is %d",
		phase, s.Alive(), s.Members(), s.cfg.MinClients)
}

// Members returns the number of client slots in play (initial K plus every
// promoted joiner); departed members still count until the session ends.
func (s *Server) Members() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.members
}

// liveConn returns the connection of a live client, or nil when the client
// is dead, departed, or not yet promoted. Reading it under mu pairs with
// acceptLate's slot writes, so round loops never race an arriving joiner.
func (s *Server) liveConn(id int) net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.alive[id] {
		return nil
	}
	return s.conns[id]
}

// accept registers the K clients and, when the session is hierarchical,
// the A edge aggregators. Roles are distinguished by their first frame
// (Hello vs AggHello) so arrival order is free; ids are assigned in
// per-role arrival order.
func (s *Server) accept() error {
	k, a, maxK := s.cfg.K, s.cfg.Aggregators, s.maxK
	s.mu.Lock()
	s.conns = make([]net.Conn, maxK)
	s.alive = make([]bool, maxK)
	s.aggConns = make([]net.Conn, a)
	s.aggAlive = make([]bool, a)
	s.mu.Unlock()
	s.rd = make([]frameReader, maxK)
	s.aggRd = make([]frameReader, a)
	s.aggAddrs = make([]string, a)
	s.addrs = make([]string, maxK)
	s.weights = make([]float64, maxK)
	s.clientDist = make([]stats.Distribution, maxK)
	s.effDist = make([]stats.Distribution, maxK)
	s.effSeen = make([]float64, maxK)
	s.loc = make([]int, maxK)
	s.lost = make([]bool, maxK)
	clients, aggs := 0, 0
	var rd frameReader
	for clients < k || aggs < a {
		conn, err := s.ln.Accept()
		if err != nil {
			return fmt.Errorf("fednet: accept: %w", err)
		}
		setDeadline(conn, s.cfg.IOTimeout)
		hello, err := s.nm.read(&rd, conn)
		if err != nil {
			return err
		}
		if (hello.Type == MsgHello || hello.Type == MsgAggHello) && hello.JobID != s.cfg.JobID {
			// Wrong tenant: turn the peer away cleanly and keep accepting —
			// in a multi-job fleet its registration belongs to another
			// job's server.
			s.nm.incJobMismatch()
			s.cfg.Telemetry.Event("job_mismatch", "got", hello.JobID, "want", s.cfg.JobID)
			_ = s.nm.write(conn, &Message{Type: MsgShutdown, JobID: s.cfg.JobID})
			_ = conn.Close()
			continue
		}
		switch hello.Type {
		case MsgHello:
			if clients == k {
				if maxK > k {
					// An early joiner raced the initial cohort: admit it
					// through the mid-session path; it is promoted at the
					// next round boundary.
					s.admitJoiner(conn, hello)
					continue
				}
				return fmt.Errorf("fednet: accept: more than %d clients", k)
			}
			id := clients
			clients++
			s.mu.Lock()
			s.conns[id] = conn
			s.alive[id] = true
			s.registered = clients
			s.mu.Unlock()
			s.addrs[id] = hello.ListenAddr
			s.weights[id] = float64(hello.NumSamples)
			s.clientDist[id] = stats.Distribution(hello.Dist)
			s.effDist[id] = stats.Distribution(append([]float64(nil), hello.Dist...))
			s.effSeen[id] = float64(hello.NumSamples)
			s.loc[id] = id
			if err := s.nm.write(conn, &Message{
				Type: MsgWelcome, ClientID: id, K: maxK, JobID: s.cfg.JobID,
				Rounds: s.cfg.Rounds, AggEvery: s.cfg.AggEvery, Tau: s.cfg.Tau,
				BatchSize: s.cfg.BatchSize, LR: s.cfg.LR,
			}); err != nil {
				return err
			}
		case MsgAggHello:
			if aggs == a {
				return fmt.Errorf("fednet: accept: more than %d aggregators", a)
			}
			aid := aggs
			aggs++
			s.mu.Lock()
			s.aggConns[aid] = conn
			s.aggAlive[aid] = true
			s.mu.Unlock()
			s.aggAddrs[aid] = hello.ListenAddr
			// Aggregator reduction trees are sized by K: hand them maxK so
			// model ids of late joiners still land inside their slots.
			if err := s.nm.write(conn, &Message{
				Type: MsgAggWelcome, AggID: aid, K: maxK, JobID: s.cfg.JobID,
			}); err != nil {
				return err
			}
		default:
			return typeMismatch(hello.Type, MsgHello)
		}
	}
	return nil
}

// acceptLate keeps admitting mid-session registrations until the listener
// closes at session end. Admissions are sequential, so joiner ids follow
// arrival order deterministically.
func (s *Server) acceptLate() {
	var rd frameReader
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		setDeadline(conn, s.cfg.IOTimeout)
		hello, err := s.nm.read(&rd, conn)
		if err != nil {
			_ = conn.Close()
			continue
		}
		if hello.Type != MsgHello || hello.JobID != s.cfg.JobID {
			if hello.Type == MsgHello {
				s.nm.incJobMismatch()
				s.cfg.Telemetry.Event("job_mismatch", "got", hello.JobID, "want", s.cfg.JobID)
			}
			_ = s.nm.write(conn, &Message{Type: MsgShutdown, JobID: s.cfg.JobID})
			_ = conn.Close()
			continue
		}
		s.admitJoiner(conn, hello)
	}
}

// admitJoiner registers one mid-session Hello: the joiner takes the next
// free slot, gets its Welcome plus a warm copy of the current global model,
// and is queued for promotion into the cohort at the next round boundary.
// A full (or shutting-down) session turns the node away with a Shutdown.
//
// The seat's first frames are written here, before the seat is published
// in conns and pending: until then no other goroutine knows the
// connection, so nothing can reach the joiner ahead of its Welcome.
func (s *Server) admitJoiner(conn net.Conn, hello *Message) {
	s.mu.Lock()
	if s.sealed || s.registered >= s.maxK {
		s.mu.Unlock()
		s.dismiss(conn)
		s.cfg.Telemetry.Event("join_rejected", "addr", hello.ListenAddr)
		return
	}
	id := s.registered
	s.registered++
	s.fstats.Joins++
	warm := s.warm
	s.mu.Unlock()
	s.nm.incJoin()
	s.cfg.Telemetry.Event("client_joined", "client", id)
	if s.beforeWelcome != nil {
		s.beforeWelcome()
	}
	setDeadline(conn, s.cfg.IOTimeout)
	// Dead on arrival (a failed write): promotion marks it dead at its
	// first broadcast.
	if err := s.nm.write(conn, &Message{
		Type: MsgWelcome, ClientID: id, K: s.maxK, JobID: s.cfg.JobID,
		Rounds: s.cfg.Rounds, AggEvery: s.cfg.AggEvery, Tau: s.cfg.Tau,
		BatchSize: s.cfg.BatchSize, LR: s.cfg.LR,
	}); err == nil {
		_ = s.nm.write(conn, &Message{Type: MsgGlobalModel, ModelID: id, Params: warm, Warm: true})
	}
	s.mu.Lock()
	if s.sealed || s.closed {
		// The session began shutting down while the Welcome was in flight.
		s.mu.Unlock()
		s.dismiss(conn)
		return
	}
	s.conns[id] = conn
	s.pending = append(s.pending, pendingJoin{
		id: id, addr: hello.ListenAddr, samples: hello.NumSamples,
		dist: append([]float64(nil), hello.Dist...),
	})
	s.mu.Unlock()
}

// dismiss turns away a joiner that holds no published seat.
func (s *Server) dismiss(conn net.Conn) {
	_ = s.nm.write(conn, &Message{Type: MsgShutdown, JobID: s.cfg.JobID})
	_ = conn.Close()
}

// promoteJoiners moves every pending joiner into the cohort: its Hello
// payload lands in the per-round arrays and the slot goes live, all on the
// coordinator at a round boundary so no running phase observes a partial
// member.
func (s *Server) promoteJoiners() {
	s.mu.Lock()
	pend := s.pending
	s.pending = nil
	s.mu.Unlock()
	for _, j := range pend {
		s.addrs[j.id] = j.addr
		s.weights[j.id] = float64(j.samples)
		s.clientDist[j.id] = stats.Distribution(j.dist)
		s.effDist[j.id] = stats.Distribution(append([]float64(nil), j.dist...))
		s.effSeen[j.id] = float64(j.samples)
		s.loc[j.id] = j.id
		s.mu.Lock()
		s.alive[j.id] = true
		if j.id >= s.members {
			s.members = j.id + 1
		}
		s.mu.Unlock()
		s.cfg.Telemetry.Event("client_promoted", "client", j.id, "epoch", s.epoch)
	}
}

// markLeft records a graceful departure: the client already shipped its
// in-flight state, so it leaves the cohort without counting as dead.
// Idempotent per client.
func (s *Server) markLeft(id int) {
	s.mu.Lock()
	if !s.alive[id] {
		s.mu.Unlock()
		return
	}
	s.alive[id] = false
	s.fstats.Leaves++
	conn := s.conns[id]
	s.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	s.nm.incLeave()
	s.cfg.Telemetry.Event("client_left", "client", id, "epoch", s.epoch)
}

// adoptOrphans reroutes each departing client's in-flight TrainStates to a
// live adopter, which resumes the remaining batch plan on its own shard.
// It runs before the round's next order frame, so TCP ordering guarantees
// the adopter processes the handoff first and the turn-based protocol
// stays in lockstep. States with no live adopter are lost for the round.
func (s *Server) adoptOrphans(comps []*Message) {
	for id, m := range comps {
		if m == nil || m.Type != MsgMigrateState {
			continue
		}
		s.adoptFrom(id, m.States)
	}
}

// adoptFrom finds the lowest-id live client and hands it a leaver's state
// blobs; an adopter that dies on the write is marked dead and the next
// candidate tried.
func (s *Server) adoptFrom(leaver int, states []StateBlob) {
	if len(states) == 0 {
		return
	}
	for {
		adopter, conn := -1, net.Conn(nil)
		for c := 0; c < s.members; c++ {
			if c == leaver {
				continue
			}
			if conn = s.liveConn(c); conn != nil {
				adopter = c
				break
			}
		}
		if adopter < 0 {
			for _, sb := range states {
				if sb.ModelID >= 0 && sb.ModelID < len(s.lost) {
					s.lost[sb.ModelID] = true
				}
				s.mu.Lock()
				s.fstats.LostModels++
				s.mu.Unlock()
				s.nm.incLostModel()
				s.cfg.Telemetry.Event("model_lost", "model", sb.ModelID, "from", leaver, "epoch", s.epoch)
			}
			return
		}
		setDeadline(conn, s.cfg.IOTimeout)
		if err := s.nm.write(conn, &Message{Type: MsgMigrateState, Epoch: s.epoch, States: states}); err != nil {
			s.markDead(adopter, err)
			continue
		}
		for _, sb := range states {
			if sb.ModelID >= 0 && sb.ModelID < len(s.loc) {
				s.loc[sb.ModelID] = adopter
			}
			s.mu.Lock()
			s.fstats.StateMigrations++
			s.mu.Unlock()
			s.nm.incStateMigration()
			s.cfg.Telemetry.Event("state_migration", "model", sb.ModelID, "from", leaver, "to", adopter, "epoch", s.epoch)
		}
		return
	}
}

// shutdownPending seals the session against further joins and dismisses
// joiners that were admitted but never promoted (they arrived during the
// final round).
func (s *Server) shutdownPending() {
	s.mu.Lock()
	s.sealed = true
	pend := s.pending
	s.pending = nil
	conns := make([]net.Conn, 0, len(pend))
	for _, j := range pend {
		conns = append(conns, s.conns[j.id])
	}
	s.mu.Unlock()
	for _, conn := range conns {
		if conn == nil {
			continue
		}
		setDeadline(conn, s.cfg.IOTimeout)
		_ = s.nm.write(conn, &Message{Type: MsgShutdown, JobID: s.cfg.JobID})
		_ = conn.Close()
	}
}

// aggOf maps a client to its edge aggregator: contiguous blocks, the same
// partition edgenet.Topology.AggregatorGroup uses in the simulator. The
// denominator is maxK so joiner ids map inside [0, A).
func (s *Server) aggOf(client int) int {
	return client * s.cfg.Aggregators / s.maxK
}

// aggIsAlive reports aggregator liveness under the lock.
func (s *Server) aggIsAlive(aid int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aggAlive[aid]
}

// markAggDead declares an aggregator dead and closes its connection. The
// session continues: its group's uploads are lost for the round (partial
// aggregation), exactly like a dead client's. Idempotent per aggregator.
func (s *Server) markAggDead(aid int, cause error) {
	s.mu.Lock()
	if !s.aggAlive[aid] {
		s.mu.Unlock()
		return
	}
	s.aggAlive[aid] = false
	conn := s.aggConns[aid]
	s.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	s.nm.incDeadClient()
	var ne net.Error
	if errors.As(cause, &ne) && ne.Timeout() {
		s.nm.incTimeout()
	}
	s.cfg.Telemetry.Event("aggregator_dead", "aggregator", aid, "epoch", s.epoch, "cause", fmt.Sprint(cause))
}

// broadcast sends one message to every live client; a client that cannot
// be written to is declared dead rather than failing the phase.
func (s *Server) broadcast(build func(id int) *Message) error {
	n := s.members
	for id := 0; id < n; id++ {
		conn := s.liveConn(id)
		if conn == nil {
			continue
		}
		setDeadline(conn, s.cfg.IOTimeout)
		if err := s.nm.write(conn, build(id)); err != nil {
			s.markDead(id, err)
		}
	}
	if s.Alive() < s.cfg.MinClients {
		return s.quorumErr("broadcast")
	}
	return nil
}

// collect reads one frame of the given type from every live client,
// concurrently, each read bounded by IOTimeout. Unresponsive clients are
// declared dead and their slot left nil; the phase fails only when the
// quorum is lost. Where a Completion is wanted, a gracefully departing
// client answers with a MigrateState instead — the same reported loss plus
// the in-flight states the caller reroutes to an adopter — and is marked
// left, not dead.
func (s *Server) collect(want MsgType) ([]*Message, error) {
	out := make([]*Message, s.maxK)
	var wg sync.WaitGroup
	n := s.members
	for id := 0; id < n; id++ {
		conn := s.liveConn(id)
		if conn == nil {
			continue
		}
		wg.Add(1)
		go func(id int, conn net.Conn) {
			defer wg.Done()
			setDeadline(conn, s.cfg.IOTimeout)
			m, err := s.nm.read(&s.rd[id], conn)
			switch {
			case err != nil:
				s.markDead(id, err)
			case m.Type == want:
				out[id] = m
			case want == MsgCompletion && m.Type == MsgMigrateState:
				out[id] = m
				s.markLeft(id)
			default:
				s.markDead(id, typeMismatch(m.Type, want))
			}
		}(id, conn)
	}
	wg.Wait()
	if s.Alive() < s.cfg.MinClients {
		return nil, s.quorumErr(fmt.Sprintf("collect %v", want))
	}
	return out, nil
}

// usable reports whether replica m participates in the current round: its
// host must be alive and the replica must not have been lost in transit.
func (s *Server) usable(m int) bool {
	return !s.lost[m] && s.isAlive(s.loc[m])
}

// policyState assembles the core.State the migration policy consumes. Its
// dimensions follow the current membership, so the policy sees joiners the
// round after they are promoted.
func (s *Server) policyState() *core.State {
	k := s.members
	d := make([][]float64, k)
	cost := make([][]float64, k)
	active := make([]bool, k)
	for m := 0; m < k; m++ {
		d[m] = make([]float64, k)
		cost[m] = make([]float64, k)
		active[m] = s.isAlive(m)
		for j := 0; j < k; j++ {
			d[m][j] = stats.EMD(s.effDist[m], s.clientDist[j])
		}
	}
	return &core.State{
		Epoch:       s.epoch,
		Loss:        s.lastLoss,
		PrevLoss:    s.prevLoss,
		D:           d,
		Locations:   append([]int(nil), s.loc[:k]...),
		Active:      active,
		CostSeconds: cost, // real transfers are timed by the network itself
	}
}

// Run drives the full session: registration, G rounds of the four-process
// workflow, and shutdown. It blocks until completion. On an unrecoverable
// error every connection is closed before returning, so no client-facing
// goroutine is left parked in a read.
func (s *Server) Run() error {
	err := s.run()
	if err != nil {
		s.Close()
	}
	return err
}

func (s *Server) run() error {
	if s.ln == nil {
		return fmt.Errorf("fednet: server not listening")
	}
	// The listener closes when the session ends (success or error), so the
	// late-join accept loop always drains out — and is joined, so no
	// admission races teardown.
	defer func() {
		_ = s.ln.Close()
		s.lateWG.Wait()
	}()
	if err := s.accept(); err != nil {
		return err
	}
	if s.maxK > s.cfg.K {
		warm := s.global.AppendParams(nil)
		s.mu.Lock()
		s.warm = warm
		s.mu.Unlock()
		s.lateWG.Add(1)
		go func() {
			defer s.lateWG.Done()
			s.acceptLate()
		}()
	}
	for round := 0; round < s.cfg.Rounds; round++ {
		// Joiners admitted during the previous round enter the cohort here,
		// at the round boundary, so the whole round sees one membership.
		if s.beforeRound != nil {
			s.beforeRound(round)
		}
		s.promoteJoiners()
		// Model Distribution. A fresh blob every round, not a reused buffer:
		// acceptLate hands s.warm to joiners while the round runs, so it must
		// stay an immutable snapshot.
		params := s.global.AppendParams(nil)
		s.mu.Lock()
		s.warm = params
		s.mu.Unlock()
		n := s.members
		for m := 0; m < n; m++ {
			s.loc[m] = m
			s.lost[m] = !s.isAlive(m)
			s.effDist[m] = append(stats.Distribution(nil), s.clientDist[m]...)
			s.effSeen[m] = s.weights[m]
		}
		if err := s.broadcast(func(id int) *Message {
			return &Message{Type: MsgGlobalModel, Round: round, ModelID: id, Params: params}
		}); err != nil {
			return err
		}

		for event := 0; event < s.cfg.AggEvery; event++ {
			// Local Updating: wait for completion signals (or graceful
			// departures carrying in-flight state).
			comps, err := s.collect(MsgCompletion)
			if err != nil {
				return err
			}
			lossSum, lossN := 0.0, 0
			for _, c := range comps {
				if c == nil {
					continue
				}
				lossSum += c.Loss
				lossN++
			}
			if lossN > 0 {
				s.prevLoss, s.lastLoss = s.lastLoss, lossSum/float64(lossN)
			}
			s.epoch += s.cfg.Tau
			s.foldHostDistributions()
			// Reroute departed clients' in-flight states before the next
			// order frame so adopters see the handoff first (TCP ordering).
			s.adoptOrphans(comps)

			if event < s.cfg.AggEvery-1 {
				if err := s.migrationEvent(); err != nil {
					return err
				}
			}
		}

		// Global Aggregation (aggregate issues the upload orders itself so
		// the aggregator tier is armed before any client dials it).
		if err := s.aggregate(round); err != nil {
			return err
		}
		s.History = append(s.History, s.lastLoss)
	}
	for aid, conn := range s.aggConns {
		if !s.aggIsAlive(aid) {
			continue
		}
		setDeadline(conn, s.cfg.IOTimeout)
		if err := s.nm.write(conn, &Message{Type: MsgShutdown}); err != nil {
			s.markAggDead(aid, err)
		}
	}
	if err := s.broadcast(func(int) *Message { return &Message{Type: MsgShutdown} }); err != nil {
		return err
	}
	s.shutdownPending()
	return nil
}

// foldHostDistributions advances every live model's effective label
// mixture (Eq. 12's virtual dataset) by the host data it just trained on.
func (s *Server) foldHostDistributions() {
	for m := 0; m < s.members; m++ {
		if !s.usable(m) {
			continue
		}
		host := s.loc[m]
		n := s.weights[host]
		if n == 0 {
			continue
		}
		tot := s.effSeen[m] + n
		mix := make(stats.Distribution, len(s.effDist[m]))
		for i := range mix {
			mix[i] = (s.effDist[m][i]*s.effSeen[m] + s.clientDist[host][i]*n) / tot
		}
		s.effDist[m] = mix
		s.effSeen[m] = tot
	}
}

// migrationEvent computes the policy, issues orders, waits for transfer
// confirmations, and reconciles the location map against what actually
// happened on the wire: an order whose destination turned out dead or
// unreachable falls back to keeping the model on its sender (a reroute),
// and a model neither kept nor confirmed received is declared lost.
func (s *Server) migrationEvent() error {
	st := s.policyState()
	dest := s.migrator.Plan(st)
	k := s.members
	if len(dest) != k {
		return fmt.Errorf("fednet: policy returned %d destinations for %d models", len(dest), k)
	}
	// Sanitize: stay for invalid endpoints; reroute orders whose
	// destination is already known dead.
	src := append([]int(nil), s.loc[:k]...)
	for m, d := range dest {
		switch {
		case d < 0 || d >= k:
			dest[m] = src[m]
		case !s.usable(m):
			dest[m] = src[m]
		case d != src[m] && !s.isAlive(d):
			dest[m] = src[m]
			s.recordReroute(m, d, "destination dead")
		}
	}
	// Per-client outbound orders and inbound counts.
	orders := make([][]Order, k)
	inbound := make([]int, k)
	for m, d := range dest {
		if d == src[m] {
			continue
		}
		orders[src[m]] = append(orders[src[m]], Order{ModelID: m, DestID: d, DestAddr: s.addrs[d]})
		inbound[d]++
	}
	// Deterministic order within a client.
	for _, os := range orders {
		sort.Slice(os, func(i, j int) bool { return os[i].ModelID < os[j].ModelID })
	}
	if err := s.broadcast(func(id int) *Message {
		return &Message{Type: MsgMigrationOrder, Orders: orders[id], Inbound: inbound[id]}
	}); err != nil {
		return err
	}
	done, err := s.collect(MsgTransferDone)
	if err != nil {
		return err
	}
	// Reconcile each planned move against the senders' and receivers'
	// reports. The receiver's confirmation is authoritative.
	for m, d := range dest {
		from := src[m]
		if d == from {
			continue
		}
		switch {
		case done[from] != nil && containsInt(done[from].Kept, m):
			dest[m] = from
			s.recordReroute(m, d, "destination unreachable")
		case done[d] != nil && containsInt(done[d].Received, m):
			// Confirmed: the move stands.
		default:
			// Sender shipped it (or died trying) and the receiver never
			// confirmed: the replica is gone for this round.
			dest[m] = from
			s.lost[m] = true
			s.mu.Lock()
			s.fstats.LostModels++
			s.mu.Unlock()
			s.nm.incLostModel()
			s.cfg.Telemetry.Event("model_lost", "model", m, "from", from, "to", d, "epoch", s.epoch)
		}
	}
	// Commit the reconciled location map and advance the effective mixtures.
	for m, d := range dest {
		s.loc[m] = d
	}
	st2 := s.policyState()
	s.migrator.Feedback(st, dest, st2, false, false)
	return nil
}

// recordReroute accounts one migration order that fell back to its sender.
func (s *Server) recordReroute(m, dst int, cause string) {
	s.mu.Lock()
	s.fstats.Reroutes++
	s.mu.Unlock()
	s.nm.incReroute()
	s.cfg.Telemetry.Event("migration_reroute", "model", m, "dest", dst, "epoch", s.epoch, "cause", cause)
}

// aggregate issues the round's upload orders and installs the weighted
// average of the surviving LocalUpdates as the new global model,
// renormalizing over the models that actually arrived: with u ⊆ {1..K}
// uploaded, the new global is Σ_{m∈u} n_m·w_m / Σ_{m∈u} n_m, so degraded
// membership still yields a valid convex combination.
//
// Both paths stream into an agg.Accumulator with one slot per model id, so
// peak server memory is O(MaxConcurrentUploads + log K) model vectors —
// never O(K) buffered uploads — and the result is a pure function of the
// set of uploads that arrived, independent of arrival order, goroutine
// scheduling, or how clients are partitioned across edge aggregators.
func (s *Server) aggregate(round int) error {
	// Expected uploads per client under the reconciled location map. Slot
	// arrays (and the accumulator) are sized maxK so joiner model ids fold
	// at their own slots; only members are walked.
	hosted := make([][]int, s.maxK)
	expected := 0
	for m := 0; m < s.members; m++ {
		if !s.usable(m) {
			continue
		}
		hosted[s.loc[m]] = append(hosted[s.loc[m]], m)
		expected++
	}
	if expected == 0 {
		return fmt.Errorf("fednet: aggregate: no usable replicas remain")
	}
	acc := agg.New(s.maxK, s.global.NumParams())
	var recv int
	var err error
	if s.cfg.Aggregators > 0 {
		recv, err = s.collectHierarchical(round, hosted, acc)
	} else {
		recv, err = s.collectDirect(round, hosted, acc)
	}
	if err != nil {
		return err
	}
	wsum := acc.Weight()
	if recv == 0 || wsum <= 0 {
		return fmt.Errorf("fednet: aggregate: all %d expected uploads failed", expected)
	}
	// A round is partial when fewer models fold in than the in-play cohort
	// would produce — whether the shortfall was known up front (dead host,
	// lost replica) or happened mid-upload. members, not the static K, is
	// the yardstick once joiners have grown the cohort.
	if recv < s.members {
		s.mu.Lock()
		s.fstats.PartialRounds++
		s.mu.Unlock()
		s.nm.incPartialRound()
		s.cfg.Telemetry.Event("partial_aggregation",
			"round", round, "received", recv, "expected", expected, "members", s.members, "weight", wsum)
	}
	avg := acc.Finish(1 / wsum)
	s.global.SetParamVector(avg)
	tensor.PutScratch(avg)
	return nil
}

// collectDirect orders every client to upload to the server and streams
// the uploads into acc. Reads run on at most MaxConcurrentUploads
// goroutines; each model is decoded from its frame straight into an
// accumulator leaf (the global model only lends its shapes for the check)
// and folds at its model-id slot. A client that dies mid-upload loses only the
// uploads that had not fully arrived (the old buffered path forfeited all
// of a dead client's uploads; streaming folds each one on arrival, which
// strictly preserves more work under faults).
func (s *Server) collectDirect(round int, hosted [][]int, acc *agg.Accumulator) (int, error) {
	if err := s.broadcast(func(int) *Message {
		return &Message{Type: MsgAggregateOrder, Round: round}
	}); err != nil {
		return 0, err
	}
	var (
		foldMu sync.Mutex
		recv   int
		wg     sync.WaitGroup
	)
	sem := make(chan struct{}, s.cfg.MaxConcurrentUploads)
	for id := 0; id < s.members; id++ {
		conn := s.liveConn(id)
		if len(hosted[id]) == 0 || conn == nil {
			continue
		}
		wg.Add(1)
		go func(id int, conn net.Conn) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for range hosted[id] {
				setDeadline(conn, s.cfg.IOTimeout)
				m, err := s.nm.expect(&s.rd[id], conn, MsgLocalUpdate)
				if err != nil {
					s.markDead(id, err)
					return
				}
				leaf := acc.Leaf()
				if err := s.global.UnmarshalParamsInto(m.Params, leaf); err != nil {
					tensor.PutScratch(leaf)
					s.markDead(id, err)
					return
				}
				foldMu.Lock()
				if err := acc.AddLeaf(m.ModelID, leaf, s.weights[m.ModelID]); err != nil {
					foldMu.Unlock()
					s.markDead(id, err)
					return
				}
				recv++
				if len(m.EffDist) > 0 {
					s.effDist[m.ModelID] = stats.Distribution(m.EffDist)
				}
				foldMu.Unlock()
			}
		}(id, conn)
	}
	wg.Wait()
	return recv, nil
}

// collectHierarchical arms each live aggregator with its group's expected
// upload count and the slot weights, redirects clients to their group's
// aggregator, and folds the returned partial-sum nodes into acc. A dead
// aggregator costs its group's uploads for the round — the same partial-
// aggregation semantics as a dead client, surfaced in FaultStats.
func (s *Server) collectHierarchical(round int, hosted [][]int, acc *agg.Accumulator) (int, error) {
	expAgg := make([]int, s.cfg.Aggregators)
	for id, models := range hosted {
		if len(models) > 0 && s.isAlive(id) {
			expAgg[s.aggOf(id)] += len(models)
		}
	}
	for aid, conn := range s.aggConns {
		if !s.aggIsAlive(aid) {
			continue
		}
		setDeadline(conn, s.cfg.IOTimeout)
		if err := s.nm.write(conn, &Message{
			Type: MsgAggRound, Round: round, Expected: expAgg[aid], Weights: s.weights,
		}); err != nil {
			s.markAggDead(aid, err)
		}
	}
	if err := s.broadcast(func(id int) *Message {
		return &Message{Type: MsgAggregateOrder, Round: round, AggAddr: s.aggAddrs[s.aggOf(id)]}
	}); err != nil {
		return 0, err
	}
	var (
		foldMu sync.Mutex
		recv   int
		wg     sync.WaitGroup
	)
	for aid := range s.aggConns {
		if !s.aggIsAlive(aid) {
			continue
		}
		wg.Add(1)
		go func(aid int) {
			defer wg.Done()
			conn := s.aggConns[aid]
			// The aggregator itself waits up to its IOTimeout for straggler
			// uploads before resolving the round, so the upstream read gets
			// twice that budget.
			setDeadline(conn, 2*s.cfg.IOTimeout)
			m, err := s.nm.expect(&s.aggRd[aid], conn, MsgPartialSum)
			if err != nil {
				s.markAggDead(aid, err)
				return
			}
			foldMu.Lock()
			defer foldMu.Unlock()
			for _, nd := range m.Nodes {
				if err := acc.Fold(nd.Start, nd.Level, nd.Count, nd.Weight, nd.Vec); err != nil {
					s.markAggDead(aid, fmt.Errorf("fednet: bad partial sum: %w", err))
					return
				}
				recv += nd.Count
			}
		}(aid)
	}
	wg.Wait()
	return recv, nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
