package fednet

import (
	"sync"
	"testing"
	"time"

	"fedmigr/internal/core"
	"fedmigr/internal/data"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

// TestDistributedMatchesSimulator cross-validates the TCP runtime against
// the in-process simulator: the same clients, factory, hyperparameters and
// schedule (FedAvg-style, aggregate every epoch, no momentum) must produce
// the *same global model parameters* — the network is just transport.
func TestDistributedMatchesSimulator(t *testing.T) {
	const (
		k      = 3
		rounds = 2
		lr     = 0.05
		batch  = 8
	)
	train, test := data.Synthetic(data.SyntheticConfig{
		Classes: k, Channels: 1, Height: 4, Width: 4,
		PerClass: 9, Noise: 0.6, Seed: 77,
	})
	parts := data.PartitionShards(train, k, 1, tensor.NewRNG(7))
	factory := func() *nn.Sequential {
		g := tensor.NewRNG(13)
		return nn.NewSequential(
			nn.NewFlatten(),
			nn.NewDense(g, 16, 8), nn.NewReLU(),
			nn.NewDense(g, 8, k),
		)
	}

	// Simulator run: FedAvg, aggregate every epoch, `rounds` epochs.
	simClients := make([]*core.Client, k)
	for i := range simClients {
		simClients[i] = &core.Client{ID: i, Data: parts[i]}
	}
	tr, err := core.NewTrainer(core.Config{
		Scheme: core.FedAvg, AggEvery: 1, MaxEpochs: rounds,
		BatchSize: batch, LR: lr, Seed: 1,
	}, simClients, edgenet.EvenTopology(k, 1), nil, test, factory, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run()
	simVec := tr.GlobalModel().ParamVector()

	// Distributed run over loopback TCP with the identical schedule.
	srv, err := NewServer(ServerConfig{
		K: k, Rounds: rounds, AggEvery: 1, BatchSize: batch, LR: lr,
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
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		c, err := NewClient(ClientConfig{ServerAddr: addr, IOTimeout: 10 * time.Second}, parts[i], factory)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Run(); err != nil {
				t.Error(err)
			}
		}()
	}
	if err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	netVec := srv.GlobalModel().ParamVector()

	if simVec.Size() != netVec.Size() {
		t.Fatalf("param sizes differ: %d vs %d", simVec.Size(), netVec.Size())
	}
	maxDiff := 0.0
	for i := range simVec.Data() {
		d := simVec.Data()[i] - netVec.Data()[i]
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-12 {
		t.Fatalf("simulator and TCP runtime diverge: max |Δ| = %v", maxDiff)
	}
}
