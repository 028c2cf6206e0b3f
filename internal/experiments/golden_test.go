package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// goldenDigests pins the SHA-256 of res.String()+res.RenderChart() for the
// experiments whose output the solver and engine optimisations must not
// move by a bit. Any change to the solver, the event engine or the
// protocols above them that alters a single rendered digit fails here.
// The values were recorded with go1.24 on amd64; the floating-point
// results, and with them the digests, may differ on other architectures.
var goldenDigests = map[string]string{
	"S1": "d0ecd49af572d754036c77bba222bc272e31540a4508080581c8c0e6941d51fe",
	"S2": "2e90e0fb53f6223d043ef8fa326bb1e8adfd9bc4663cec326a7518c0f267f5f9",
	"S3": "c5c7aecefbb6248a504b61a85c1c1fb028668507e1f41cf7936793897a4a7d79",
	"S6": "f41b8c7263280a8b41c81827eb54091db040224445376213ed6909a46bca3313",
	"S7": "090d30d068e924e2ea827f806fbdfe6272cd40bc6f956886e987a420e419bd0b",
	"S8": "c51bd1ac5fdb09d64cd8bcad5316df1ffcb0d172c95d3d0905870c15b094b8f0",
}

// goldenS5PointTrace pins the replay trace digest of the 100-host S5 point:
// 4 shards, 200 tenants, 1000 jobs, 5% control-plane drop, seed 42.
const goldenS5PointTrace = "8920e585498e307f7d73c960004aefefc6bf9f509cd977969921c67a4571dfb4"

// checkGolden fails t unless res hashes to the digest pinned for id.
func checkGolden(t *testing.T, id string, res Result) {
	t.Helper()
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.String()+res.RenderChart())))
	if want := goldenDigests[id]; got != want {
		t.Fatalf("%s output digest %s, want golden %s", id, got, want)
	}
}

func TestClusterChaosGolden(t *testing.T) {
	checkGolden(t, "S6", ClusterChaos())
}

func TestClusterPointGolden(t *testing.T) {
	res := RunClusterPoint(ClusterRunSpec{
		Hosts: 100, Shards: 4, Tenants: 200, Jobs: 1000, DropPct: 5, Seed: 42,
	})
	if res.TraceSHA != goldenS5PointTrace {
		t.Fatalf("S5 100-host point trace %s, want golden %s", res.TraceSHA, goldenS5PointTrace)
	}
}
