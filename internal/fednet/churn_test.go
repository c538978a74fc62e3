package fednet

import (
	"errors"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"fedmigr/internal/data"
	"fedmigr/internal/faults"
	"fedmigr/internal/telemetry"
	"fedmigr/internal/tensor"
)

// TestChurnChaosSession is the dynamic-membership integration test: 8
// clients start a session capped at 10, two more join mid-session and are
// promoted into the cohort, one client departs gracefully mid-phase —
// shipping its in-flight TrainState for adoption — and one crashes. The
// server must finish every round (no round lost), reroute the leaver's
// state to a live adopter, and account every membership change in both
// FaultStats and the fednet_* telemetry counters. The test runs under
// -race in CI and checks for goroutine leaks.
func TestChurnChaosSession(t *testing.T) {
	const (
		k        = 8
		maxK     = 10
		rounds   = 3
		aggEvery = 2
		tau      = 2
	)
	const ioTimeout = 5 * time.Second
	baseline := runtime.NumGoroutine()

	train, test := data.Synthetic(data.SyntheticConfig{
		Classes: maxK, Channels: 1, Height: 4, Width: 4,
		PerClass: 20, TestPer: 10, Noise: 0.6, Seed: 42,
	})
	parts := data.PartitionShards(train, maxK, 1, tensor.NewRNG(1))
	factory := chaosFactory(maxK)

	// Client 3 leaves after 3 local epochs — mid-phase, since τ=2 — and
	// client 5 crashes at the end of round 0.
	plan := faults.NewPlan(2).LeaveAt(3, 3).CrashAt(5, 3)

	tel := telemetry.New()
	srv, err := NewServer(ServerConfig{
		K: k, MaxClients: maxK, Rounds: rounds, AggEvery: aggEvery, Tau: tau,
		BatchSize: 8, LR: 0.05, IOTimeout: ioTimeout, Telemetry: tel,
	}, factory, ringMigrator{})
	if err != nil {
		t.Fatal(err)
	}
	// Round 1's boundary waits until both joiners hold seats, so a loaded
	// box cannot end the session before they are promoted.
	srv.beforeRound = func(round int) {
		if round == 1 {
			holdUntil(srv, ioTimeout, seated(srv, maxK))
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Run() }()

	clients := make([]*Client, maxK)
	errs := make([]error, maxK)
	var wg sync.WaitGroup
	start := func(i int) {
		c, err := NewClient(ClientConfig{
			ServerAddr: addr, IOTimeout: ioTimeout,
			DialRetries: 2, RetryBackoff: 5 * time.Millisecond,
			Faults: plan.NodeFaults(i, maxK),
		}, parts[i], factory)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.Run()
		}()
	}
	// The initial cohort registers gated, so client i gets id i and the
	// fault plan hits the intended nodes; the two late joiners then dial
	// into the running session, gated the same way, and take slots 8 and 9.
	for i := 0; i < maxK; i++ {
		start(i)
		awaitSeats(t, srv, i+1, ioTimeout)
	}

	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	srv.Close()
	for _, c := range clients {
		c.Close()
	}

	// No round lost: the session completed every round despite two joins, a
	// graceful departure and a crash.
	if got := len(srv.History); got != rounds {
		t.Fatalf("server finished %d rounds, want %d", got, rounds)
	}
	if got := srv.Members(); got != maxK {
		t.Fatalf("cohort grew to %d members, want %d", got, maxK)
	}

	for i, err := range errs {
		switch i {
		case 3:
			if err != nil {
				t.Fatalf("leaver must exit cleanly, got %v", err)
			}
			if !clients[3].Left {
				t.Fatal("leaver did not record its departure")
			}
		case 5:
			if !errors.Is(err, faults.ErrCrashed) {
				t.Fatalf("client 5 should have crashed by plan, got %v", err)
			}
		default:
			if err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
		}
	}

	st := srv.Stats()
	if st.Joins != 2 {
		t.Fatalf("joins = %d, want 2: %+v", st.Joins, st)
	}
	if st.Leaves != 1 {
		t.Fatalf("leaves = %d, want 1: %+v", st.Leaves, st)
	}
	if st.StateMigrations < 1 {
		t.Fatalf("no in-flight state was migrated: %+v", st)
	}
	if st.DeadClients < 1 {
		t.Fatalf("the crash was not detected: %+v", st)
	}
	// The counters surface through telemetry under the same names.
	if got := tel.Counter("fednet_joins_total", "role", "server").Value(); got != 2 {
		t.Fatalf("fednet_joins_total = %d, want 2", got)
	}
	if got := tel.Counter("fednet_leaves_total", "role", "server").Value(); got != 1 {
		t.Fatalf("fednet_leaves_total = %d, want 1", got)
	}
	if got := tel.Counter("fednet_state_migrations_total", "role", "server").Value(); got < 1 {
		t.Fatalf("fednet_state_migrations_total = %d, want >= 1", got)
	}

	// Someone adopted the leaver's state and resumed its batch plan.
	adopted := 0
	for _, c := range clients {
		adopted += c.Adopted
	}
	if adopted < 1 {
		t.Fatal("no client adopted the departing node's state")
	}
	// The joiners were promoted and actually trained.
	for i := k; i < maxK; i++ {
		if clients[i].Epochs == 0 {
			t.Fatalf("joiner %d never trained after promotion", i)
		}
	}
	if acc := evalAccuracy(srv.GlobalModel(), test); math.IsNaN(acc) {
		t.Fatal("churn session produced a NaN global model")
	}

	// Everything shut down: goroutine count returns to near baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d vs baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// seated reports, under the lock, whether n seats are published: promoted
// or pending.
func seated(srv *Server, n int) func() bool {
	return func() bool { return srv.members+len(srv.pending) >= n }
}

// holdUntil polls cond under srv.mu until it holds or the timeout passes.
// Round hooks call it on the coordinator, so it reports nothing itself:
// the session's own checks catch a wait that ran out.
func holdUntil(srv *Server, timeout time.Duration, cond func() bool) {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		ok := cond()
		srv.mu.Unlock()
		if ok {
			return
		}
	}
}

// TestAdmitJoiner exercises the admission state machine directly over an
// in-memory pipe: a free slot yields Welcome plus a warm model handoff and
// a queued promotion; a full or sealed session turns the node away with a
// clean Shutdown.
func TestAdmitJoiner(t *testing.T) {
	factory := chaosFactory(2)
	srv, err := NewServer(ServerConfig{
		K: 1, MaxClients: 2, IOTimeout: 2 * time.Second,
	}, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.conns = make([]net.Conn, 2)
	srv.alive = make([]bool, 2)
	srv.registered = 1
	srv.warm = []byte{1, 2, 3}

	// Free slot: Welcome then warm GlobalModel, joiner queued.
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	admitted := make(chan struct{})
	go func() {
		srv.admitJoiner(c1, &Message{Type: MsgHello, ListenAddr: "x:1", NumSamples: 4, Dist: []float64{1, 0}})
		close(admitted)
	}()
	welcome, err := ReadMessage(c2)
	if err != nil {
		t.Fatal(err)
	}
	if welcome.Type != MsgWelcome || welcome.ClientID != 1 || welcome.K != 2 {
		t.Fatalf("admission welcome wrong: %+v", welcome)
	}
	warm, err := ReadMessage(c2)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Type != MsgGlobalModel || !warm.Warm || len(warm.Params) != 3 {
		t.Fatalf("warm handoff wrong: %+v", warm)
	}
	<-admitted
	srv.mu.Lock()
	pend, reg, joins := len(srv.pending), srv.registered, srv.fstats.Joins
	srv.mu.Unlock()
	if pend != 1 || reg != 2 || joins != 1 {
		t.Fatalf("pending=%d registered=%d joins=%d after admission", pend, reg, joins)
	}

	// Full session: clean Shutdown, nothing queued.
	f1, f2 := net.Pipe()
	defer f2.Close()
	go srv.admitJoiner(f1, &Message{Type: MsgHello})
	rej, err := ReadMessage(f2)
	if err != nil {
		t.Fatal(err)
	}
	if rej.Type != MsgShutdown {
		t.Fatalf("full session must reject with Shutdown, got %v", rej.Type)
	}

	// Sealed session: same clean rejection even with a free slot.
	srv.mu.Lock()
	srv.registered = 1
	srv.sealed = true
	srv.mu.Unlock()
	g1, g2 := net.Pipe()
	defer g2.Close()
	go srv.admitJoiner(g1, &Message{Type: MsgHello})
	rej2, err := ReadMessage(g2)
	if err != nil {
		t.Fatal(err)
	}
	if rej2.Type != MsgShutdown {
		t.Fatalf("sealed session must reject with Shutdown, got %v", rej2.Type)
	}
	srv.mu.Lock()
	if len(srv.pending) != 1 || srv.fstats.Joins != 1 {
		srv.mu.Unlock()
		t.Fatal("rejections must not queue joiners or count joins")
	}

	// Sealed while the Welcome is in flight: the joiner gets its Welcome and
	// warm model, then a Shutdown, and is never queued.
	srv.sealed = false
	srv.mu.Unlock()
	srv.beforeWelcome = func() {
		srv.mu.Lock()
		srv.sealed = true
		srv.mu.Unlock()
	}
	h1, h2 := net.Pipe()
	defer h2.Close()
	go srv.admitJoiner(h1, &Message{Type: MsgHello})
	for _, want := range []MsgType{MsgWelcome, MsgGlobalModel, MsgShutdown} {
		m, err := ReadMessage(h2)
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != want {
			t.Fatalf("sealed in flight: got %v, want %v", m.Type, want)
		}
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.pending) != 1 || srv.conns[1] != c1 {
		t.Fatal("a joiner sealed out in flight must not be queued or seated")
	}
}

// TestJoinerWelcomeIsFirstFrame holds the Welcome back until the session
// has distributed twice since the joiner's Hello. A seat published before
// its Welcome is written gets a GlobalModel first, every time; the joiner
// must instead be welcomed, promoted at a later boundary, and train. Round
// 1 waits for the joiner's Hello and round 4 for its seat, so the session
// cannot end first.
func TestJoinerWelcomeIsFirstFrame(t *testing.T) {
	const ioTimeout = 5 * time.Second
	train, _ := data.Synthetic(data.SyntheticConfig{
		Classes: 2, Channels: 1, Height: 4, Width: 4,
		PerClass: 8, TestPer: 1, Noise: 0.6, Seed: 42,
	})
	parts := data.PartitionShards(train, 2, 1, tensor.NewRNG(1))
	factory := chaosFactory(2)
	tel := telemetry.New()
	srv, err := NewServer(ServerConfig{
		K: 1, MaxClients: 2, Rounds: 6, AggEvery: 1, Tau: 1,
		BatchSize: 8, LR: 0.05, IOTimeout: ioTimeout, Telemetry: tel,
	}, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each distribution writes one GlobalModel per live seat. Two more than
	// at the Hello means a distribution reached the joiner's seat, or two
	// passed without it.
	sent := tel.Counter("fednet_msgs_total", "role", "server", "dir", "tx", "type", MsgGlobalModel.String())
	srv.beforeWelcome = func() {
		target := sent.Value() + 2
		for deadline := time.Now().Add(ioTimeout); sent.Value() < target && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	srv.beforeRound = func(round int) {
		switch round {
		case 1:
			holdUntil(srv, ioTimeout, func() bool { return srv.registered == 2 })
		case 4:
			holdUntil(srv, ioTimeout, seated(srv, 2))
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Run() }()
	clients := make([]*Client, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range clients {
		c, err := NewClient(ClientConfig{ServerAddr: addr, IOTimeout: ioTimeout}, parts[i], factory)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.Run()
		}()
		awaitSeats(t, srv, i+1, ioTimeout)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	srv.Close()
	for i, c := range clients {
		c.Close()
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
	}
	if got := srv.Members(); got != 2 {
		t.Fatalf("cohort grew to %d members, want 2", got)
	}
	if clients[1].Epochs == 0 {
		t.Fatal("the joiner never trained after promotion")
	}
}
