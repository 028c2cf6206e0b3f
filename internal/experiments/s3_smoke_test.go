package experiments

import "testing"

func TestRailFailoverShape(t *testing.T) {
	r, err := Run("S3")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(r.Tables))
	}
	if len(r.Tables[0].Rows) != 3 || len(r.Tables[1].Rows) != 2 {
		t.Fatalf("row counts %d/%d, want 3/2", len(r.Tables[0].Rows), len(r.Tables[1].Rows))
	}
	if len(r.Notes) == 0 {
		t.Fatal("no notes")
	}
	checkGolden(t, "S3", r)
}
