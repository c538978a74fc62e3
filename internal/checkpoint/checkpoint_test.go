package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedmigr/internal/core"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

func TestSaveLoadModelRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "model.bin")
	m := nn.NewMLP(tensor.NewRNG(1), 4, 8, 3)
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	m2 := nn.NewMLP(tensor.NewRNG(2), 4, 8, 3)
	if err := LoadModel(path, m2); err != nil {
		t.Fatal(err)
	}
	a, b := m.ParamVector(), m2.ParamVector()
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestLoadModelMissingFile(t *testing.T) {
	m := nn.NewMLP(tensor.NewRNG(1), 2, 2)
	if err := LoadModel(filepath.Join(t.TempDir(), "nope.bin"), m); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestLoadModelWrongArch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.bin")
	if err := SaveModel(path, nn.NewMLP(tensor.NewRNG(1), 2, 3, 2)); err != nil {
		t.Fatal(err)
	}
	other := nn.NewMLP(tensor.NewRNG(1), 2, 4, 2)
	if err := LoadModel(path, other); err == nil {
		t.Fatal("expected architecture mismatch error")
	}
}

func sampleHistory() []core.RoundMetrics {
	return []core.RoundMetrics{
		{Epoch: 1, Round: 0, TrainLoss: 2.3, TestAcc: 0.1,
			Snapshot: edgenet.Snapshot{TotalBytes: 1 << 20, C2SBytes: 1 << 19, WallSeconds: 1.5}},
		{Epoch: 2, Round: 1, TrainLoss: 1.1, TestAcc: 0.55,
			Snapshot: edgenet.Snapshot{TotalBytes: 2 << 20, C2SBytes: 1 << 20, WallSeconds: 3}},
	}
}

func TestMetricsCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetricsCSV(&buf, sampleHistory()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "epoch,round,train_loss") {
		t.Fatalf("missing header:\n%s", out)
	}
	got, err := ReadMetricsCSV(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Epoch != 1 || got[1].TestAcc != 0.55 || got[1].TrainLoss != 1.1 {
		t.Fatalf("round trip %+v", got)
	}
}

func TestSaveMetricsCSVFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out", "metrics.csv")
	if err := SaveMetricsCSV(path, sampleHistory()); err != nil {
		t.Fatal(err)
	}
	// Readable back from disk.
	f, err := filepath.Glob(path)
	if err != nil || len(f) != 1 {
		t.Fatalf("file not written: %v %v", f, err)
	}
	// A save that cannot complete (its temp path is blocked by a
	// directory) errors out and leaves the previous history intact.
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveMetricsCSV(path, sampleHistory()[:1]); err == nil {
		t.Fatal("save over a blocked temp path did not fail")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("failed save changed the existing file (err %v):\n%s", err, got)
	}
}

func TestRunStateRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	m := nn.NewMLP(tensor.NewRNG(3), 4, 8, 3)
	if err := SaveRunState(dir, m, sampleHistory()); err != nil {
		t.Fatal(err)
	}
	m2 := nn.NewMLP(tensor.NewRNG(4), 4, 8, 3)
	hist, err := LoadRunState(dir, m2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 || hist[1].Epoch != 2 || hist[1].TestAcc != 0.55 {
		t.Fatalf("history round trip %+v", hist)
	}
	a, b := m.ParamVector().Data(), m2.ParamVector().Data()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("model round trip mismatch")
		}
	}
}

func TestLoadRunStateMissing(t *testing.T) {
	m := nn.NewMLP(tensor.NewRNG(1), 2, 2)
	if _, err := LoadRunState(filepath.Join(t.TempDir(), "nope"), m); err == nil {
		t.Fatal("expected error for missing run state")
	}
}

func TestReadMetricsCSVErrors(t *testing.T) {
	if _, err := ReadMetricsCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty csv must error")
	}
	bad := "epoch,round,train_loss,test_acc\nx,0,1,1\n"
	if _, err := ReadMetricsCSV(strings.NewReader(bad)); err == nil {
		t.Fatal("bad epoch must error")
	}
	short := "epoch,round,train_loss,test_acc\n1,2\n"
	if _, err := ReadMetricsCSV(strings.NewReader(short)); err == nil {
		t.Fatal("short row must error")
	}
}
