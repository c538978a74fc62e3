package fednet

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedmigr/internal/core"
	"fedmigr/internal/data"
	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{
		Type: MsgModelTransfer, Round: 3, ModelID: 7,
		Params:  []byte{1, 2, 3, 4},
		Orders:  []Order{{ModelID: 1, DestID: 2, DestAddr: "x:1"}},
		Dist:    []float64{0.5, 0.5},
		Loss:    1.25,
		Inbound: 2,
	}
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.ModelID != 7 || out.Loss != 1.25 || out.Inbound != 2 {
		t.Fatalf("round trip %+v", out)
	}
	if len(out.Params) != 4 || out.Params[2] != 3 {
		t.Fatalf("params %v", out.Params)
	}
	if len(out.Orders) != 1 || out.Orders[0].DestAddr != "x:1" {
		t.Fatalf("orders %+v", out.Orders)
	}
}

func TestReadMessageTruncated(t *testing.T) {
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Fatal("truncated length must error")
	}
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0, 0, 10, 1, 2})); err == nil {
		t.Fatal("truncated payload must error")
	}
}

func TestReadMessageOversizeFrame(t *testing.T) {
	var hdr [4]byte
	hdr[0] = 0xFF // ~4 GiB claimed length
	if _, err := ReadMessage(bytes.NewReader(append(hdr[:], 0))); err == nil {
		t.Fatal("oversize frame must be rejected")
	}
}

func TestExpectWrongType(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Type: MsgHello}); err != nil {
		t.Fatal(err)
	}
	if _, err := (*netMetrics)(nil).expect(new(frameReader), &buf, MsgWelcome); err == nil {
		t.Fatal("type mismatch must error")
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgHello.String() != "Hello" || MsgShutdown.String() != "Shutdown" {
		t.Fatal("names wrong")
	}
	if MsgType(99).String() == "" {
		t.Fatal("unknown type must still render")
	}
}

func TestNewServerValidation(t *testing.T) {
	factory := func() *nn.Sequential { return nn.NewMLP(tensor.NewRNG(1), 2, 2) }
	if _, err := NewServer(ServerConfig{}, factory, nil); err == nil {
		t.Fatal("K=0 must fail")
	}
	if _, err := NewServer(ServerConfig{K: 2}, nil, nil); err == nil {
		t.Fatal("nil factory must fail")
	}
	if _, err := NewServer(ServerConfig{K: 2}, factory, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewClientValidation(t *testing.T) {
	ds, _ := data.Synthetic(data.SyntheticConfig{Classes: 2, PerClass: 2, Seed: 1})
	factory := func() *nn.Sequential { return nn.NewMLP(tensor.NewRNG(1), 2, 2) }
	if _, err := NewClient(ClientConfig{ServerAddr: "x"}, nil, factory); err == nil {
		t.Fatal("nil dataset must fail")
	}
	if _, err := NewClient(ClientConfig{ServerAddr: "x"}, ds, nil); err == nil {
		t.Fatal("nil factory must fail")
	}
	if _, err := NewClient(ClientConfig{}, ds, factory); err == nil {
		t.Fatal("missing server address must fail")
	}
}

// awaitSeats blocks until the server has handed out n client seats, so the
// caller's next client gets id n. It gates on the seat count because that
// only grows: Alive() falls again the moment a planned crash or leave
// lands, which — once the K-th registration has started the session — can
// happen inside a single poll interval.
func awaitSeats(t *testing.T, srv *Server, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		srv.mu.Lock()
		seats := srv.registered
		srv.mu.Unlock()
		if seats >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client %d did not register", n-1)
		}
		time.Sleep(time.Millisecond)
	}
}

// runSession spins up a server and k clients over loopback TCP and runs a
// full session, returning the server for inspection.
func runSession(t *testing.T, k, rounds, aggEvery int, migrator core.Migrator) (*Server, []*Client) {
	t.Helper()
	return runCountedSession(t, k, rounds, aggEvery, migrator, new(atomic.Int64))
}

// runCountedSession is runSession with the shared factory's calls counted
// into built.
func runCountedSession(t *testing.T, k, rounds, aggEvery int, migrator core.Migrator, built *atomic.Int64) (*Server, []*Client) {
	t.Helper()
	train, _ := data.Synthetic(data.SyntheticConfig{
		Classes: k, Channels: 1, Height: 4, Width: 4,
		PerClass: 8, Noise: 0.6, Seed: 42,
	})
	parts := data.PartitionShards(train, k, 1, tensor.NewRNG(1))
	factory := func() *nn.Sequential {
		built.Add(1)
		g := tensor.NewRNG(7)
		return nn.NewSequential(
			nn.NewFlatten(),
			nn.NewDense(g, 16, 16), nn.NewReLU(),
			nn.NewDense(g, 16, k),
		)
	}
	srv, err := NewServer(ServerConfig{
		K: k, Rounds: rounds, AggEvery: aggEvery, BatchSize: 8, LR: 0.05,
		IOTimeout: 10 * time.Second,
	}, factory, migrator)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Run() }()

	clients := make([]*Client, k)
	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		c, err := NewClient(ClientConfig{ServerAddr: addr, IOTimeout: 10 * time.Second}, parts[i], factory)
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
		// server-assigned id i regardless of goroutine scheduling (the race
		// detector perturbs it enough to change accept order otherwise).
		awaitSeats(t, srv, i+1, 10*time.Second)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	return srv, clients
}

func TestSessionFedAvgStyle(t *testing.T) {
	srv, clients := runSession(t, 3, 2, 1, nil)
	if len(srv.History) != 2 {
		t.Fatalf("history %v", srv.History)
	}
	for _, c := range clients {
		if c.Epochs != 2 {
			t.Fatalf("client ran %d epochs, want 2", c.Epochs)
		}
		if c.Migrations != 0 {
			t.Fatal("aggEvery=1 must not migrate")
		}
	}
	if v := srv.GlobalModel().ParamVector(); math.IsNaN(v.Mean()) {
		t.Fatal("NaN global model")
	}
}

func TestSessionWithMigration(t *testing.T) {
	srv, clients := runSession(t, 3, 2, 3, core.NewRandomMigrator(5))
	if len(srv.History) != 2 {
		t.Fatalf("history %v", srv.History)
	}
	totalMigrations := 0
	totalEpochs := 0
	for _, c := range clients {
		totalMigrations += c.Migrations
		totalEpochs += c.Epochs
	}
	if totalMigrations == 0 {
		t.Fatal("random migration session moved no models over TCP")
	}
	// 2 rounds × 3 events × τ=1 × 3 models = 18 model-epochs total.
	if totalEpochs != 18 {
		t.Fatalf("total model-epochs %d, want 18", totalEpochs)
	}
}

func TestSessionLossImproves(t *testing.T) {
	srv, _ := runSession(t, 3, 4, 2, core.NewRandomMigrator(9))
	first, last := srv.History[0], srv.History[len(srv.History)-1]
	if !(last < first) {
		t.Fatalf("distributed training did not reduce loss: %v → %v", first, last)
	}
}

func TestSessionGreedyPolicyOverTCP(t *testing.T) {
	srv, clients := runSession(t, 4, 2, 3, &core.GreedyEMDMigrator{})
	_ = srv
	moved := 0
	for _, c := range clients {
		moved += c.Migrations
	}
	if moved == 0 {
		t.Fatal("greedy policy never migrated despite one-class-per-client data")
	}
}

// TestGoldenSessionHash pins a whole loopback session's arithmetic: the
// digest was produced on the commit before replicas were recycled and
// uploads decoded straight into accumulator leaves, so a recycled replica
// that still carried another model's weights or buffers, or a frame buffer
// reused while its Params were still being read, moves it. amd64 only, as
// TestGoldenModelHashes.
func TestGoldenSessionHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	srv, clients := runSession(t, 4, 3, 3, &core.GreedyEMDMigrator{})
	moved := 0
	for _, c := range clients {
		moved += c.Migrations
	}
	if moved != 4*2*3 {
		t.Fatalf("clients sent %d models to peers, want K·(AggEvery−1)·rounds = 24", moved)
	}
	blob, err := srv.GlobalModel().MarshalParams()
	if err != nil {
		t.Fatal(err)
	}
	const want = "21a4830ed9e6268537ad71bde3d1b5afe8057adf90fb72a66e82b7f6aa03fd0a"
	if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != want {
		t.Fatalf("3-round 4-client AggEvery=3 session: global model digest %s, want %s", got, want)
	}
}

// TestClientRecyclesReplicas: a client builds replicas only until its free
// list covers the most it ever hosts at once — its own model plus one
// inbound per migration event — so the factory's call count is bounded by
// the cohort, not by the rounds. Without the free list this session builds
// a replica per install: 1 + K·AggEvery·rounds = 37, plus the server's.
func TestClientRecyclesReplicas(t *testing.T) {
	const k, rounds, aggEvery = 4, 3, 3
	var built atomic.Int64
	runCountedSession(t, k, rounds, aggEvery, &core.GreedyEMDMigrator{}, &built)
	afterThree := built.Load()
	if limit := int64(1 + 2*k); afterThree > limit {
		t.Fatalf("factory ran %d times in a %d-round session, want at most 1 + 2K = %d", afterThree, rounds, limit)
	}
	built.Store(0)
	runCountedSession(t, k, 2*rounds, aggEvery, &core.GreedyEMDMigrator{}, &built)
	if limit := int64(1 + 2*k); built.Load() > limit {
		t.Fatalf("factory ran %d times in a %d-round session (%d in %d rounds): the count grows with the rounds",
			built.Load(), 2*rounds, afterThree, rounds)
	}
}

func TestServerRunWithoutListen(t *testing.T) {
	factory := func() *nn.Sequential { return nn.NewMLP(tensor.NewRNG(1), 2, 2) }
	srv, err := NewServer(ServerConfig{K: 1}, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Run(); err == nil {
		t.Fatal("Run before Listen must fail")
	}
}
