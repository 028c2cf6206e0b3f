package experiments

import "testing"

func TestObjectGatewayShape(t *testing.T) {
	if testing.Short() {
		t.Skip("S8 sweeps a 1024-object per-object cell")
	}
	r, err := Run("S8")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "S8", r)
	if len(r.Tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(r.Tables))
	}
	// Bulk baseline + 4 coalescing cells; 2 cluster cells.
	if len(r.Tables[0].Rows) != 5 || len(r.Tables[1].Rows) != 2 {
		t.Fatalf("row counts %d/%d, want 5/2", len(r.Tables[0].Rows), len(r.Tables[1].Rows))
	}
	// The ≥5× coalescing gate, the CPU gap, the exactly-once audit and the
	// bit-identical replay are asserted inside the experiment (it panics on
	// violation); here we check the published shape.
	if got := r.Tables[0].Rows[1][1]; got != "1024" {
		t.Fatalf("per-object cell submitted %s windows, want 1024", got)
	}
	if len(r.Notes) == 0 {
		t.Fatal("no notes")
	}
}
