package bench

import (
	"strings"
	"testing"
	"time"
)

func TestFigureAddAndFormat(t *testing.T) {
	var f Figure
	f.Name = "test"
	f.Title = "A test figure"
	f.XLabel = "x"
	f.YLabel = "y"
	f.Add("a", 1, 10)
	f.Add("a", 2, 20)
	f.Add("b", 1, 100)
	if len(f.Series) != 2 {
		t.Fatalf("series = %d", len(f.Series))
	}
	out := f.Format()
	for _, want := range []string{"test", "A test figure", "a", "b", "10", "100"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	// x=2 has no b value: rendered as "-".
	if !strings.Contains(out, "-") {
		t.Errorf("missing placeholder for absent point:\n%s", out)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(100, time.Second); got != 100 {
		t.Errorf("Throughput = %f", got)
	}
	if got := Throughput(10, 0); got != 0 {
		t.Errorf("Throughput with zero elapsed = %f", got)
	}
}

func TestMeasurePairSmoke(t *testing.T) {
	tput, ms, err := MeasurePair(PairConfig{NC: 1, NT: 1, Calls: 20})
	if err != nil {
		t.Fatalf("MeasurePair: %v", err)
	}
	if tput <= 0 || ms <= 0 {
		t.Errorf("tput=%f ms=%f", tput, ms)
	}
	t.Logf("1x1 null: %.0f req/s, %.3f ms/req", tput, ms)
}

func TestMeasurePairAsyncWindow(t *testing.T) {
	sync1, _, err := MeasurePair(PairConfig{NC: 1, NT: 1, Calls: 40, Window: 1})
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	async, _, err := MeasurePair(PairConfig{NC: 1, NT: 1, Calls: 40, Window: 10})
	if err != nil {
		t.Fatalf("async: %v", err)
	}
	t.Logf("sync=%.0f req/s async(w=10)=%.0f req/s", sync1, async)
	if async <= 0 {
		t.Error("async throughput is zero")
	}
}

func TestMeasurePairReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tput, ms, err := MeasurePair(PairConfig{NC: 4, NT: 4, Calls: 20})
	if err != nil {
		t.Fatalf("MeasurePair 4x4: %v", err)
	}
	if tput <= 0 {
		t.Errorf("tput=%f", tput)
	}
	t.Logf("4x4 null: %.0f req/s, %.3f ms/req", tput, ms)
}
