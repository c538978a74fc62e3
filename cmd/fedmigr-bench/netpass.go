package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"fedmigr/internal/core"
	"fedmigr/internal/data"
	"fedmigr/internal/fednet"
	"fedmigr/internal/nn"
	"fedmigr/internal/telemetry"
	"fedmigr/internal/tensor"
)

// netIOTimeout bounds every frame; generous, because a timeout here is a
// failed round, not a measurement.
const netIOTimeout = 30 * time.Second

// netData generates the workload's inputs from the seed: C10 synthetic
// images, one label shard per client, and the shared test set.
func netData(n *netSpec, seed int64) (parts []*data.Dataset, test *data.Dataset) {
	train, test := data.Synthetic(data.SyntheticConfig{
		Classes: 10, Channels: 3, Height: 8, Width: 8,
		PerClass: n.perClass, TestPer: n.perClass, Noise: 1.6, Seed: seed,
	})
	return data.PartitionShards(train, n.k, 1, tensor.NewRNG(seed+3)), test
}

// netSession is one server + K clients session over loopback TCP.
type netSession struct {
	srv     *fednet.Server
	clients []*fednet.Client
	began   time.Time // construction starts
	// from/to bracket the rounds: all K clients registered → Run returned.
	from, to usage
	rounds   int
}

// runNetSession runs one full session in-process over real 127.0.0.1
// sockets — the system's own links, one frame in flight per link — and
// waits for every node to finish. Registration is gated one client at a
// time so client i gets id i and the run is reproducible.
func runNetSession(n *netSpec, seed int64, rounds int, parts []*data.Dataset, tel *telemetry.Telemetry) (*netSession, error) {
	began := time.Now()
	factory := netFactory(seed, n.hidden)
	srv, err := fednet.NewServer(fednet.ServerConfig{
		K: n.k, Rounds: rounds, AggEvery: n.aggEvery, BatchSize: n.batch,
		IOTimeout: netIOTimeout, Telemetry: tel,
	}, factory, &core.GreedyEMDMigrator{})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Run() }()

	s := &netSession{srv: srv, clients: make([]*fednet.Client, n.k), rounds: rounds, began: began}
	errs := make([]error, n.k)
	var wg sync.WaitGroup
	// Whatever happens below, no client goroutine outlives this function.
	defer func() {
		for _, c := range s.clients {
			if c != nil {
				c.Close()
			}
		}
		wg.Wait()
	}()
	for i := 0; i < n.k; i++ {
		c, err := fednet.NewClient(fednet.ClientConfig{
			ServerAddr: addr, IOTimeout: netIOTimeout, Telemetry: tel,
		}, parts[i], factory)
		if err != nil {
			return nil, err
		}
		s.clients[i] = c
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Run()
		}(i)
		deadline := time.Now().Add(netIOTimeout)
		for srv.Alive() < i+1 {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("net: client %d did not register", i)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	s.from = readUsage()
	if err := <-srvErr; err != nil {
		return nil, fmt.Errorf("net: server: %w", err)
	}
	s.to = readUsage()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("net: client %d: %w", i, err)
		}
	}
	return s, nil
}

// perRound is the session's raw wall and CPU milliseconds per round,
// registered → Run returned. The server owns the round loop, so a session is
// the finest sample an outside observer gets.
func (s *netSession) perRound() (wallMS, cpuMS float64) {
	n := float64(s.rounds)
	return s.to.wall.Sub(s.from.wall).Seconds() * 1e3 / n, (s.to.cpu - s.from.cpu).Seconds() * 1e3 / n
}

// failedRounds counts what the session's own bookkeeping calls damaged:
// partial rounds, lost models and dead clients each spoil a round.
func (s *netSession) failedRounds() int {
	st := s.srv.Stats()
	bad := st.PartialRounds + st.LostModels + st.DeadClients
	for _, l := range s.srv.History {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			bad++
		}
	}
	if bad > s.rounds {
		bad = s.rounds
	}
	return bad
}

// gateSession applies the net correctness gates to one finished session.
func gateSession(r *passResult, n *netSpec, s *netSession) {
	st := s.srv.Stats()
	r.gate("fault_stats_zero", st == fednet.FaultStats{}, "session reported %+v", st)
	moved := 0
	for _, c := range s.clients {
		moved += c.Migrations
	}
	want := n.k * (n.aggEvery - 1) * s.rounds
	r.gate("migrations", moved == want, "clients sent %d models to peers, want K·(AggEvery−1)·rounds = %d", moved, want)
	r.gate("rounds_recorded", len(s.srv.History) == s.rounds, "server recorded %d rounds, want %d", len(s.srv.History), s.rounds)
}

// accuracy evaluates a model on the test set in inference mode.
func accuracy(m *nn.Sequential, test *data.Dataset) float64 {
	x, y := test.Batch(0, test.Len())
	return nn.Accuracy(m.Forward(x, false), y)
}

// settleGoroutines waits briefly for the goroutine count to fall back to
// base after a session closed, and returns the count it settled at.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// byteCounter reads one of a telemetry-on session's socket byte counters.
func byteCounter(tel *telemetry.Telemetry, role, dir string) float64 {
	return float64(tel.Counter("fednet_bytes_total", "role", role, "dir", dir).Value())
}

// netPass is one untraced pass of net_wire_heavy: setupRepeats set-ups
// (data + a warm-up session each), the timed sessions, and one short
// telemetry-on session whose only job is the two exact byte counts — frame
// sizes do not depend on timing, and the timed sessions stay untraced.
func netPass(w *workload, cfg passConfig) (*passResult, error) {
	r := newResult(w, cfg)
	n := w.net
	warmRounds := scaleRounds(n.warmRounds, cfg.scale, 1)
	sessions := scaleRounds(n.sessions, cfg.scale, 1)
	rounds := scaleRounds(n.rounds, cfg.scale, 2)
	base := runtime.NumGoroutine()

	var setups []float64
	var parts []*data.Dataset
	var test *data.Dataset
	start := procStart
	// The box's speed is sampled after every session; the pass's timings
	// are scaled by the mean over all of them (calib.go).
	for i := 0; i < setupRepeats; i++ {
		parts, test = netData(n, cfg.seed)
		s, err := runNetSession(n, cfg.seed, warmRounds, parts, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		gateSession(r, n, s)
		cfg.cal.sample(n.bursts)
		start = time.Now()
	}

	var win window
	var roundMS, cpuMS, rates []float64
	var last *netSession
	for i := 0; i < sessions; i++ {
		s, err := runNetSession(n, cfg.seed, rounds, parts, nil)
		if err != nil {
			return nil, err
		}
		cfg.cal.sample(n.bursts)
		win.add(s.from, s.to)
		wall, cpu := s.perRound()
		roundMS, cpuMS, rates = append(roundMS, wall), append(cpuMS, cpu), append(rates, 1e3/wall)
		r.Attempted += rounds
		r.Failed += s.failedRounds()
		gateSession(r, n, s)
		g := settleGoroutines(base)
		r.gate("goroutines_settled", g <= base, "%d goroutines after Close, %d before the session", g, base)
		h := modelHash(s.srv.GlobalModel())
		if last != nil {
			r.gate("sessions_identical", h == r.Detail.Hashes["final"], "session %d ended at model %.12s, the first at %.12s", i, h, r.Detail.Hashes["final"])
		} else {
			r.Detail.Hashes["final"] = h
		}
		last = s
	}

	tel := telemetry.New()
	byteRounds := scaleRounds(n.byteRounds, cfg.scale, 1)
	if _, err := runNetSession(n, cfg.seed, byteRounds, parts, tel); err != nil {
		return nil, err
	}
	// Every byte any node wrote to a socket; the server role's tx+rx is the
	// C2S share.
	total := byteCounter(tel, "server", "tx") + byteCounter(tel, "client", "tx")
	c2s := byteCounter(tel, "server", "tx") + byteCounter(tel, "server", "rx")

	// Every client trains one pass over its shard per local epoch.
	perRound := 0
	for _, p := range parts {
		perRound += p.Len() * n.aggEvery
	}
	nr := float64(r.Attempted)
	r.Detail.Samples = len(roundMS)
	speed := cfg.cal.speed(0)
	r.Detail.BoxSpeed = speed
	r.set("setup_s", "s", median(setups)*speed)
	r.set("round_ms_p50", "ms", median(roundMS)*speed)
	r.set("cpu_ms_per_round", "ms", median(cpuMS)*speed)
	r.set("samples_per_s", "1/s", float64(perRound)*median(rates)/speed)
	r.set("allocs_per_round", "count", float64(win.mallocs)/nr)
	r.set("alloc_mb_per_round", "MB", float64(win.bytes)/1e6/nr)
	r.set("traffic_bytes_per_round", "B", total/float64(byteRounds))
	r.set("c2s_bytes_per_round", "B", c2s/float64(byteRounds))

	r.gateAccuracy(w, cfg, accuracy(last.srv.GlobalModel(), test))
	return r, nil
}
