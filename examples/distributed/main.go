// Distributed FedMigr: a real parameter server and ten client processes
// (goroutines here, but full TCP in between) training over loopback — the
// in-miniature counterpart of the paper's 30-device test-bed. Models
// really move: C2S uploads to the server, C2C migrations directly between
// client listeners.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"fedmigr/internal/core"
	"fedmigr/internal/data"
	"fedmigr/internal/fednet"
	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

func main() {
	const (
		k        = 10
		rounds   = 4
		aggEvery = 5
	)
	// One-class-per-client non-IID data, as in the paper's C10 setting.
	train, test := data.Synthetic(data.SyntheticConfig{
		Classes: 10, Channels: 1, Height: 6, Width: 6,
		PerClass: 20, TestPer: 20, Noise: 1.2, Seed: 3,
	})
	parts := data.PartitionShards(train, k, 1, tensor.NewRNG(3))
	factory := func() *nn.Sequential {
		g := tensor.NewRNG(11)
		return nn.NewSequential(
			nn.NewFlatten(),
			nn.NewDense(g, 36, 32), nn.NewReLU(),
			nn.NewDense(g, 32, 10),
		)
	}

	srv, err := fednet.NewServer(fednet.ServerConfig{
		K: k, Rounds: rounds, AggEvery: aggEvery, BatchSize: 8, LR: 0.05,
		IOTimeout: 30 * time.Second,
	}, factory, &core.GreedyEMDMigrator{})
	if err != nil {
		log.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("parameter server on %s, %d clients, %d rounds × %d events\n\n", addr, k, rounds, aggEvery)

	var wg sync.WaitGroup
	clients := make([]*fednet.Client, k)
	for i := 0; i < k; i++ {
		c, err := fednet.NewClient(fednet.ClientConfig{ServerAddr: addr, IOTimeout: 30 * time.Second}, parts[i], factory)
		if err != nil {
			log.Fatal(err)
		}
		clients[i] = c
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := clients[i].Run(); err != nil {
				log.Printf("client %d: %v", i, err)
			}
		}(i)
	}
	if err := srv.Run(); err != nil {
		log.Fatal(err)
	}
	wg.Wait()

	fmt.Println("per-round mean training loss at the server:")
	for r, l := range srv.History {
		fmt.Printf("  round %d: %.4f\n", r+1, l)
	}
	migrations := 0
	for _, c := range clients {
		migrations += c.Migrations
	}
	fmt.Printf("\nC2C model migrations over TCP: %d\n", migrations)

	// Evaluate the final global model on held-out data.
	global := srv.GlobalModel()
	x, y := test.Batch(0, test.Len())
	out := global.Forward(x, false)
	fmt.Printf("final global model accuracy: %.1f%%\n", 100*nn.Accuracy(out, y))
}
