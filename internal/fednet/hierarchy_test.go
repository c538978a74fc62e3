package fednet

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"fedmigr/internal/data"
	"fedmigr/internal/faults"
	"fedmigr/internal/tensor"
)

// hierSession is one hierarchical run's endpoints and outcomes.
type hierSession struct {
	srv        *Server
	aggs       []*Aggregator
	clients    []*Client
	clientErrs []error
	aggErrs    []error
}

// runHierSession runs a k-client, nAggs-aggregator session with
// deterministic ids (aggregator a and client i register only after their
// predecessors). sabotage, when non-nil, runs concurrently with the
// session — it is how tests kill an aggregator mid-run.
func runHierSession(t *testing.T, k, nAggs, rounds, aggEvery int, plan *faults.Plan,
	parts []*data.Dataset, sabotage func(*hierSession)) *hierSession {
	t.Helper()
	const ioTimeout = 2 * time.Second
	factory := chaosFactory(k)
	srv, err := NewServer(ServerConfig{
		K: k, Rounds: rounds, AggEvery: aggEvery, BatchSize: 8, LR: 0.05,
		IOTimeout: ioTimeout, Aggregators: nAggs,
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

	ses := &hierSession{
		srv: srv, aggs: make([]*Aggregator, nAggs), clients: make([]*Client, k),
		clientErrs: make([]error, k), aggErrs: make([]error, nAggs),
	}
	var wg sync.WaitGroup
	for a := 0; a < nAggs; a++ {
		ag, err := NewAggregator(AggregatorConfig{
			ServerAddr: addr, IOTimeout: ioTimeout,
			DialRetries: 2, RetryBackoff: 5 * time.Millisecond,
		}, factory)
		if err != nil {
			t.Fatal(err)
		}
		ses.aggs[a] = ag
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			ses.aggErrs[a] = ses.aggs[a].Run()
		}(a)
		deadline := time.Now().Add(ioTimeout)
		for srv.AggregatorsAlive() < a+1 {
			if time.Now().After(deadline) {
				t.Fatalf("aggregator %d did not register", a)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < k; i++ {
		c, err := NewClient(ClientConfig{
			ServerAddr: addr, IOTimeout: ioTimeout,
			DialRetries: 2, RetryBackoff: 5 * time.Millisecond,
			Faults: plan.NodeFaults(i, k),
		}, parts[i], factory)
		if err != nil {
			t.Fatal(err)
		}
		ses.clients[i] = c
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ses.clientErrs[i] = ses.clients[i].Run()
		}(i)
		awaitSeats(t, srv, i+1, ioTimeout)
	}
	var sabWG sync.WaitGroup
	if sabotage != nil {
		sabWG.Add(1)
		go func() { defer sabWG.Done(); sabotage(ses) }()
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	sabWG.Wait()
	wg.Wait()
	srv.Close()
	for _, ag := range ses.aggs {
		ag.Close()
	}
	for _, c := range ses.clients {
		c.Close()
	}
	return ses
}

// TestHierarchicalMatchesDirect is the fault-free parity check: the same
// session run with direct uploads and through an aggregator tier must
// produce bit-identical global parameters — interposing aggregators only
// changes where partial sums are computed, never their value, because both
// paths fold the same leaves into the same fixed-shape reduction tree
// (internal/agg's set-determinism contract).
func TestHierarchicalMatchesDirect(t *testing.T) {
	const (
		k      = 6
		rounds = 2
	)
	train, _ := data.Synthetic(data.SyntheticConfig{
		Classes: k, Channels: 1, Height: 4, Width: 4,
		PerClass: 12, Noise: 0.6, Seed: 9,
	})
	parts := data.PartitionShards(train, k, 1, tensor.NewRNG(3))

	direct, _, derrs := runChaosSession(t, k, rounds, 2, nil, parts)
	for i, err := range derrs {
		if err != nil {
			t.Fatalf("direct client %d: %v", i, err)
		}
	}
	for _, nAggs := range []int{1, 2, 3} {
		ses := runHierSession(t, k, nAggs, rounds, 2, nil, parts, nil)
		for i, err := range ses.clientErrs {
			if err != nil {
				t.Fatalf("aggs=%d client %d: %v", nAggs, i, err)
			}
		}
		for a, err := range ses.aggErrs {
			if err != nil {
				t.Fatalf("aggs=%d aggregator %d: %v", nAggs, a, err)
			}
		}
		want := direct.GlobalModel().ParamVector().Data()
		got := ses.srv.GlobalModel().ParamVector().Data()
		if len(want) != len(got) {
			t.Fatalf("aggs=%d: param sizes differ", nAggs)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("aggs=%d: param %d differs bitwise: %v vs %v", nAggs, i, want[i], got[i])
			}
		}
		totUploads, totNodes := 0, 0
		for _, ag := range ses.aggs {
			_, up, nodes, peak := ag.Snapshot()
			totUploads += up
			totNodes += nodes
			if peak > 4 { // ⌈log2 6⌉ + in-flight merge headroom
				t.Fatalf("aggs=%d: aggregator peak live %d buffers, want ≤ 4", nAggs, peak)
			}
		}
		if totUploads != k*rounds {
			t.Fatalf("aggs=%d: aggregators folded %d uploads, want %d", nAggs, totUploads, k*rounds)
		}
		if totNodes > totUploads {
			t.Fatalf("aggs=%d: %d nodes exceed %d uploads", nAggs, totNodes, totUploads)
		}
		// A single aggregator holds every slot, so each round's uploads
		// collapse into one complete root node — maximal compression. (At
		// higher fan-outs the ring migration can leave a group holding no
		// sibling-aligned slots, so no merge count is guaranteed.)
		if nAggs == 1 && totNodes != rounds {
			t.Fatalf("aggs=1: %d nodes for %d rounds, want one per round", totNodes, rounds)
		}
	}
}

// TestHierarchicalChaos drives the aggregator tier through the fault plan:
// one client crashes mid-session, one C2C link is severed, and one of the
// two aggregators is killed after its first served round. The server must
// still finish every round on the surviving group's partial sums, count
// the degraded rounds, and leak no goroutines.
func TestHierarchicalChaos(t *testing.T) {
	const (
		k        = 8
		nAggs    = 2
		rounds   = 3
		aggEvery = 2
	)
	baseline := runtime.NumGoroutine()

	train, test := data.Synthetic(data.SyntheticConfig{
		Classes: k, Channels: 1, Height: 4, Width: 4,
		PerClass: 20, TestPer: 10, Noise: 0.6, Seed: 42,
	})
	parts := data.PartitionShards(train, k, 1, tensor.NewRNG(1))

	// Client 5 crashes after 3 local epochs; the 1↔2 link refuses every
	// transfer; aggregator 1 (groups clients 4..7) dies after one round.
	plan := faults.NewPlan(1).CrashAt(5, 3).SeverC2C(1, 2)
	ses := runHierSession(t, k, nAggs, rounds, aggEvery, plan, parts,
		func(ses *hierSession) {
			deadline := time.Now().Add(30 * time.Second)
			for {
				if r, _, _, _ := ses.aggs[1].Snapshot(); r >= 1 {
					break
				}
				if time.Now().After(deadline) {
					return // session ended first; the test assertions will say why
				}
				time.Sleep(time.Millisecond)
			}
			ses.aggs[1].Close()
		})

	if got := len(ses.srv.History); got != rounds {
		t.Fatalf("server finished %d rounds, want %d", got, rounds)
	}
	for i, err := range ses.clientErrs {
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
	st := ses.srv.Stats()
	if st.DeadClients < 1 {
		t.Fatalf("no client was declared dead: %+v", st)
	}
	if st.PartialRounds < 1 {
		t.Fatalf("no partial aggregation happened: %+v", st)
	}
	dropped := 0
	for _, c := range ses.clients {
		dropped += c.DroppedUploads
	}
	if dropped == 0 {
		t.Fatalf("no client dropped uploads toward the dead aggregator")
	}

	chaosAcc := evalAccuracy(ses.srv.GlobalModel(), test)
	if chaosAcc < 1.0/float64(k) {
		t.Fatalf("chaos model no better than chance: %.3f", chaosAcc)
	}
	t.Logf("accuracy=%.3f stats=%+v dropped=%d", chaosAcc, st, dropped)

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
