package fednet

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"fedmigr/internal/core"
	"fedmigr/internal/data"
	"fedmigr/internal/faults"
	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

// ringMigrator rotates every model to its host's right-hand neighbor, so
// each migration event exercises every link once — including the ones the
// fault plan breaks.
type ringMigrator struct{}

func (ringMigrator) Plan(s *core.State) []int {
	dest := make([]int, s.K())
	for m, l := range s.Locations {
		dest[m] = (l + 1) % s.K()
	}
	return dest
}

func (ringMigrator) Feedback(*core.State, []int, *core.State, bool, bool) {}

// chaosFactory is the shared small model for chaos runs.
func chaosFactory(k int) core.ModelFactory {
	return func() *nn.Sequential {
		g := tensor.NewRNG(7)
		return nn.NewSequential(
			nn.NewFlatten(),
			nn.NewDense(g, 16, 16), nn.NewReLU(),
			nn.NewDense(g, 16, k),
		)
	}
}

// evalAccuracy scores a model over the synthetic test set.
func evalAccuracy(m *nn.Sequential, test *data.Dataset) float64 {
	correct, total := 0.0, 0
	for lo := 0; lo < test.Len(); lo += 64 {
		hi := lo + 64
		if hi > test.Len() {
			hi = test.Len()
		}
		x, y := test.Batch(lo, hi)
		out := m.Forward(x, false)
		correct += nn.Accuracy(out, y) * float64(hi-lo)
		total += hi - lo
	}
	return correct / float64(total)
}

// runChaosSession runs a k-client session under the given fault plan with
// deterministic client ids (client i registers only after i clients are
// already in). Returns the server and the per-client Run errors.
func runChaosSession(t *testing.T, k, rounds, aggEvery int, plan *faults.Plan, parts []*data.Dataset) (*Server, []*Client, []error) {
	t.Helper()
	const ioTimeout = 2 * time.Second
	factory := chaosFactory(k)
	srv, err := NewServer(ServerConfig{
		K: k, Rounds: rounds, AggEvery: aggEvery, BatchSize: 8, LR: 0.05,
		IOTimeout: ioTimeout,
	}, factory, ringMigrator{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Run() }()

	clients := make([]*Client, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		c, err := NewClient(ClientConfig{
			ServerAddr: addr, IOTimeout: ioTimeout,
			DialRetries: 2, RetryBackoff: 5 * time.Millisecond,
			Faults: plan.NodeFaults(i, k),
		}, parts[i], factory)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = clients[i].Run()
		}(i)
		// Gate the next registration on this one landing, so client i gets
		// server-assigned id i and the fault plan hits the intended nodes.
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
	return srv, clients, errs
}

// TestChaosSession is the fault-injection integration test: 8 clients, one
// of which crashes mid-session while one C2C link is severed throughout.
// The server must finish all rounds, reroute the undeliverable migrations,
// aggregate partially over the survivors, and come out with a model close
// to the fault-free run's — with no goroutine leaks afterwards.
func TestChaosSession(t *testing.T) {
	const (
		k        = 8
		rounds   = 3
		aggEvery = 2
	)
	baseline := runtime.NumGoroutine()

	train, test := data.Synthetic(data.SyntheticConfig{
		Classes: k, Channels: 1, Height: 4, Width: 4,
		PerClass: 20, TestPer: 10, Noise: 0.6, Seed: 42,
	})
	parts := data.PartitionShards(train, k, 1, tensor.NewRNG(1))

	// Fault-free reference run.
	ref, _, refErrs := runChaosSession(t, k, rounds, aggEvery, nil, parts)
	for i, err := range refErrs {
		if err != nil {
			t.Fatalf("fault-free client %d: %v", i, err)
		}
	}
	refAcc := evalAccuracy(ref.GlobalModel(), test)

	// Chaos run: client 5 crashes after 3 local epochs (mid round 1), the
	// 1↔2 link refuses every transfer.
	plan := faults.NewPlan(1).CrashAt(5, 3).SeverC2C(1, 2)
	srv, clients, errs := runChaosSession(t, k, rounds, aggEvery, plan, parts)

	if got := len(srv.History); got != rounds {
		t.Fatalf("server finished %d rounds, want %d", got, rounds)
	}
	for i, err := range errs {
		if i == 5 {
			if !errors.Is(err, faults.ErrCrashed) {
				t.Fatalf("client 5 should have crashed by plan, got %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("surviving client %d: %v", i, err)
		}
	}

	st := srv.Stats()
	if st.DeadClients < 1 {
		t.Fatalf("no client was declared dead: %+v", st)
	}
	if st.Reroutes < 1 {
		t.Fatalf("no migration was rerouted: %+v", st)
	}
	if st.PartialRounds < 1 {
		t.Fatalf("no partial aggregation happened: %+v", st)
	}
	// Client 1's undeliverable order to client 2 must have fallen back.
	if clients[1].Fallbacks < 1 {
		t.Fatalf("client 1 never kept an undeliverable model: %d fallbacks", clients[1].Fallbacks)
	}

	chaosAcc := evalAccuracy(srv.GlobalModel(), test)
	if chaosAcc < refAcc-0.35 {
		t.Fatalf("chaos run degraded too far: %.3f vs fault-free %.3f", chaosAcc, refAcc)
	}
	t.Logf("accuracy fault-free=%.3f chaos=%.3f stats=%+v", refAcc, chaosAcc, st)

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

// TestCloseIdempotent checks Close can be called repeatedly, from multiple
// goroutines, on both endpoints.
func TestCloseIdempotent(t *testing.T) {
	factory := chaosFactory(2)
	srv, err := NewServer(ServerConfig{K: 2}, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ds, _ := data.Synthetic(data.SyntheticConfig{Classes: 2, PerClass: 2, Seed: 1})
	cli, err := NewClient(ClientConfig{ServerAddr: "127.0.0.1:1"}, ds, factory)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Close()
			cli.Close()
		}()
	}
	wg.Wait()
	srv.Close()
	cli.Close()
}

// TestCloseUnblocksClientRun parks a client in a frame read against a
// server that never answers, then closes it: Run must return promptly
// instead of hanging until the I/O timeout.
func TestCloseUnblocksClientRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow the Hello and go silent: the client blocks reading
			// the Welcome that never comes.
			go func() { _, _ = ReadMessage(conn) }()
		}
	}()

	ds, _ := data.Synthetic(data.SyntheticConfig{Classes: 2, PerClass: 2, Seed: 1})
	cli, err := NewClient(ClientConfig{
		ServerAddr: ln.Addr().String(), IOTimeout: time.Minute,
	}, ds, chaosFactory(2))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cli.Run() }()
	time.Sleep(50 * time.Millisecond)
	cli.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run returned nil after mid-session Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the client's frame read")
	}
}
