package experiment_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
)

// Golden hashes of the observability plane's NDJSON bytes for a
// one-worker sweep of baseline and weekly-maintenance (the fault counters
// bound) at 1/168 scale, one replication. They were recorded on the
// per-line metric export, before it rendered shared fragments once per
// row and wrote whole lines in blocks, so they anchor the export's bytes
// and line order against the renderer it replaced. Like the report
// goldens, they are tied to the generator's float stream (go1.24
// linux/amd64 at record time) and so to an FMA CPU: amd64's math.Exp
// takes an FMA path when the CPU has FMA, and under GODEBUG=cpu.fma=off
// these hashes fail (ROADMAP item 17).
const (
	goldenSweepMetricsNDJSON = "707413232845e3d0d4e20d39bfa2f2a0bd59ece3fdd301ed1deb6ec2c4e8ab77"
	goldenSweepTraceNDJSON   = "886f1dfe1430aa2dcb937fce03141b9736c1f23e10d5f8bbdc415d2c444d4b31"
)

func TestGoldenSweepNDJSON(t *testing.T) {
	scens, err := experiment.Select(experiment.Catalog(), "baseline,weekly-maintenance")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf, tbuf bytes.Buffer
	msink, tsink := obs.NewSink(&mbuf), obs.NewSink(&tbuf)
	_, err = experiment.Run(context.Background(), experiment.Options{
		Base:        core.NewHCMD().CampaignConfig(1.0/168, 0),
		Scenarios:   scens,
		Reps:        1,
		Workers:     1,
		MetricsSink: msink,
		TraceSink:   tsink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if msink.Err() != nil || tsink.Err() != nil {
		t.Fatalf("sink errors: %v / %v", msink.Err(), tsink.Err())
	}
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"metrics", goldenSweepMetricsNDJSON, mbuf.Bytes()},
		{"trace", goldenSweepTraceNDJSON, tbuf.Bytes()},
	} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s NDJSON (%d bytes) hash = %s, want golden %s", c.name, len(c.data), got, c.want)
		}
	}
}
