// Package data provides the datasets and data partitioners of the
// reproduction. The paper trains on CIFAR-10, CIFAR-100 and ImageNet-100;
// offline and CPU-only, we substitute deterministic synthetic
// image-classification datasets whose class structure is Gaussian clusters
// around per-class prototypes (see DESIGN.md §2). Everything the paper
// measures — non-IID behaviour, EMD dynamics, traffic/time — depends on how
// labels are partitioned across clients, which this package reproduces
// exactly: IID, label shards (Sec. IV-C), and dominance levels (Sec. IV-D).
package data

import (
	"fmt"

	"fedmigr/internal/stats"
	"fedmigr/internal/tensor"
)

// Dataset is a labelled image set with NCHW sample storage.
type Dataset struct {
	// X holds the samples as a (N, C, H, W) tensor.
	X *tensor.Tensor
	// Y holds the integer class label of each sample.
	Y []int
	// Classes is the number of distinct labels.
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Spec returns the sample geometry.
func (d *Dataset) Spec() (c, h, w int) {
	return d.X.Dim(1), d.X.Dim(2), d.X.Dim(3)
}

// Subset returns a dataset containing the samples at the given indices
// (copied, so the subset is independent of the parent).
func (d *Dataset) Subset(idx []int) *Dataset {
	c, h, w := d.Spec()
	sz := c * h * w
	x := tensor.New(len(idx), c, h, w)
	y := make([]int, len(idx))
	for i, j := range idx {
		copy(x.Data()[i*sz:(i+1)*sz], d.X.Data()[j*sz:(j+1)*sz])
		y[i] = d.Y[j]
	}
	return &Dataset{X: x, Y: y, Classes: d.Classes}
}

// Batch copies samples [lo, hi) into a fresh batch tensor and label slice.
func (d *Dataset) Batch(lo, hi int) (*tensor.Tensor, []int) {
	if lo < 0 || hi > d.Len() || lo >= hi {
		panic(fmt.Sprintf("data: bad batch range [%d,%d) of %d", lo, hi, d.Len()))
	}
	c, h, w := d.Spec()
	sz := c * h * w
	x := tensor.New(hi-lo, c, h, w)
	copy(x.Data(), d.X.Data()[lo*sz:hi*sz])
	return x, d.Y[lo:hi]
}

// BatchInto copies samples [lo, hi) into dst, which must hold exactly
// (hi-lo)·C·H·W values, and returns the matching label view — the
// allocation-free variant of Batch for loops that keep one batch buffer
// (nn.Sequential.Input).
func (d *Dataset) BatchInto(dst []float64, lo, hi int) []int {
	if lo < 0 || hi > d.Len() || lo >= hi {
		panic(fmt.Sprintf("data: bad batch range [%d,%d) of %d", lo, hi, d.Len()))
	}
	c, h, w := d.Spec()
	sz := c * h * w
	if len(dst) != (hi-lo)*sz {
		panic(fmt.Sprintf("data: BatchInto buffer has %d values, batch needs %d", len(dst), (hi-lo)*sz))
	}
	copy(dst, d.X.Data()[lo*sz:hi*sz])
	return d.Y[lo:hi]
}

// Shuffle permutes the dataset in place using g.
func (d *Dataset) Shuffle(g *tensor.RNG) {
	c, h, w := d.Spec()
	sz := c * h * w
	tmp := make([]float64, sz)
	g.Shuffle(d.Len(), func(i, j int) {
		di := d.X.Data()[i*sz : (i+1)*sz]
		dj := d.X.Data()[j*sz : (j+1)*sz]
		copy(tmp, di)
		copy(di, dj)
		copy(dj, tmp)
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
}

// LabelDistribution returns the dataset's label distribution.
func (d *Dataset) LabelDistribution() stats.Distribution {
	return stats.FromLabels(d.Y, d.Classes)
}

// SyntheticConfig parameterizes a synthetic dataset.
type SyntheticConfig struct {
	Classes  int // number of labels
	Channels int // image channels
	Height   int // image height
	Width    int // image width
	PerClass int // training samples per class
	TestPer  int // test samples per class
	// Noise is the within-class standard deviation around the class
	// prototype; larger values make the task harder. Defaults to 0.6.
	Noise float64
	Seed  int64
}

func (c SyntheticConfig) withDefaults() SyntheticConfig {
	if c.Noise == 0 {
		c.Noise = 0.6
	}
	if c.Channels == 0 {
		c.Channels = 3
	}
	if c.Height == 0 {
		c.Height = 8
	}
	if c.Width == 0 {
		c.Width = 8
	}
	return c
}

// Synthetic generates a train/test dataset pair. Each class l has a random
// prototype image P_l; samples are P_l + N(0, Noise²) pixels. The task is
// learnable (classes are linearly separated in expectation) but not
// trivial under the default noise.
func Synthetic(cfg SyntheticConfig) (train, test *Dataset) {
	cfg = cfg.withDefaults()
	if cfg.Classes <= 0 || cfg.PerClass <= 0 {
		panic(fmt.Sprintf("data: invalid synthetic config %+v", cfg))
	}
	g := tensor.NewRNG(cfg.Seed)
	dim := cfg.Channels * cfg.Height * cfg.Width
	protos := make([][]float64, cfg.Classes)
	// Prototypes are drawn at half resolution and upsampled so classes have
	// the local spatial structure convolution+pooling models rely on —
	// without it the class signal would not survive max-pooling and the
	// CNN zoo could not learn (natural images are spatially smooth too).
	ch, cw := (cfg.Height+1)/2, (cfg.Width+1)/2
	for l := range protos {
		p := make([]float64, dim)
		for c := 0; c < cfg.Channels; c++ {
			coarse := make([]float64, ch*cw)
			for i := range coarse {
				coarse[i] = g.NormFloat64() * 1.4
			}
			for y := 0; y < cfg.Height; y++ {
				for x := 0; x < cfg.Width; x++ {
					p[(c*cfg.Height+y)*cfg.Width+x] = coarse[(y/2)*cw+x/2]
				}
			}
		}
		protos[l] = p
	}
	gen := func(per int, rng *tensor.RNG) *Dataset {
		n := per * cfg.Classes
		x := tensor.New(n, cfg.Channels, cfg.Height, cfg.Width)
		y := make([]int, n)
		for l := 0; l < cfg.Classes; l++ {
			for s := 0; s < per; s++ {
				i := l*per + s
				row := x.Data()[i*dim : (i+1)*dim]
				for j, pv := range protos[l] {
					row[j] = pv + rng.NormFloat64()*cfg.Noise
				}
				y[i] = l
			}
		}
		d := &Dataset{X: x, Y: y, Classes: cfg.Classes}
		d.Shuffle(rng)
		return d
	}
	train = gen(cfg.PerClass, g.Fork())
	testPer := cfg.TestPer
	if testPer == 0 {
		testPer = cfg.PerClass / 5
		if testPer == 0 {
			testPer = 1
		}
	}
	test = gen(testPer, g.Fork())
	return train, test
}

// C10Syn returns the stand-in for CIFAR-10: 10 classes of small RGB images.
func C10Syn(perClass int, seed int64) (train, test *Dataset) {
	return Synthetic(SyntheticConfig{Classes: 10, PerClass: perClass, Seed: seed})
}

// C100Syn returns the stand-in for CIFAR-100: 100 classes.
func C100Syn(perClass int, seed int64) (train, test *Dataset) {
	return Synthetic(SyntheticConfig{Classes: 100, PerClass: perClass, Seed: seed})
}

// INet100Syn returns the stand-in for ImageNet-100: 100 classes at a
// slightly larger geometry.
func INet100Syn(perClass int, seed int64) (train, test *Dataset) {
	return Synthetic(SyntheticConfig{Classes: 100, Height: 10, Width: 10, PerClass: perClass, Seed: seed})
}
