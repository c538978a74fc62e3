package fednet

import (
	"strings"
	"sync"
	"testing"
	"time"

	"fedmigr/internal/data"
	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

// TestJobIDKeyedSession proves session isolation in a multi-job fleet: a
// server keyed to one job completes its round with matching clients while
// a client carrying another job's id is turned away with a pointed error —
// not a hang, not a protocol error, and no seat taken from K.
func TestJobIDKeyedSession(t *testing.T) {
	const k = 2
	train, _ := data.Synthetic(data.SyntheticConfig{
		Classes: k, Channels: 1, Height: 4, Width: 4,
		PerClass: 8, Noise: 0.6, Seed: 42,
	})
	parts := data.PartitionShards(train, k, 1, tensor.NewRNG(1))
	factory := func() *nn.Sequential {
		g := tensor.NewRNG(7)
		return nn.NewSequential(
			nn.NewFlatten(),
			nn.NewDense(g, 16, 8), nn.NewReLU(),
			nn.NewDense(g, 8, k),
		)
	}
	srv, err := NewServer(ServerConfig{
		JobID: "alpha", K: k, Rounds: 1, BatchSize: 8, LR: 0.05,
		IOTimeout: 10 * time.Second,
	}, factory, nil)
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

	// The stray tenant registers first: it must be rejected by job id.
	stray, err := NewClient(ClientConfig{
		ServerAddr: addr, JobID: "beta", IOTimeout: 10 * time.Second,
	}, parts[0], factory)
	if err != nil {
		t.Fatal(err)
	}
	strayErr := stray.Run()
	if strayErr == nil {
		t.Fatal("wrong-job client completed a session")
	}
	if !strings.Contains(strayErr.Error(), `"alpha"`) || !strings.Contains(strayErr.Error(), `"beta"`) {
		t.Fatalf("rejection error should name both jobs: %v", strayErr)
	}

	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		c, err := NewClient(ClientConfig{
			ServerAddr: addr, JobID: "alpha", IOTimeout: 10 * time.Second,
		}, parts[i], factory)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			errs[i] = c.Run()
		}(i, c)
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
	if len(srv.History) != 1 {
		t.Fatalf("history %v", srv.History)
	}
}

// TestJobIDEmptyMatchesLegacy pins the compatibility contract: an empty
// JobID on both sides is a match, so pre-fleet deployments keep working.
func TestJobIDEmptyMatchesLegacy(t *testing.T) {
	srv, _ := runSession(t, 2, 1, 1, nil)
	if srv.cfg.JobID != "" {
		t.Fatal("legacy session should have empty job id")
	}
	if len(srv.History) != 1 {
		t.Fatalf("history %v", srv.History)
	}
}
