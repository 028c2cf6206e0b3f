package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"A1", "A2", "A3", "A4", "A5", "A6", "E1", "E2", "F10", "F11", "F12", "F13", "F14", "F4", "F7", "F8", "F9", "S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "T1"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("ZZ"); err == nil {
		t.Fatal("unknown id should error")
	}
}

// parse "12.3 Gbps" and "+8.3%"-style cells.
func gbps(t *testing.T, cell string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(strings.Fields(cell)[0], 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", cell, err)
	}
	return f
}

func pct(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimPrefix(cell, "+"), "%")
	s = strings.TrimSuffix(s, "×")
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", cell, err)
	}
	return f
}

func TestMotivatingIperfShape(t *testing.T) {
	res := MotivatingIperf()
	rows := res.Tables[0].Rows
	def := gbps(t, rows[0][1])
	bind := gbps(t, rows[1][1])
	if bind <= def {
		t.Fatalf("binding should help: %v vs %v", def, bind)
	}
	gain := bind / def
	if gain < 1.04 || gain > 1.20 {
		t.Fatalf("gain = %.3f, paper ≈1.10", gain)
	}
}

func TestStreamTriadShape(t *testing.T) {
	res := StreamTriad()
	found := false
	for _, row := range res.Tables[0].Rows {
		if row[0] == "Triad" && row[2] == "bind" {
			bw := gbps(t, row[3])
			if bw < 48 || bw > 52 {
				t.Fatalf("Triad = %v GB/s, paper 50", bw)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("Triad row missing")
	}
}

func TestCostBreakdownShape(t *testing.T) {
	res := CostBreakdown40G()
	rows := res.Tables[0].Rows
	rftpTotal := pct(t, rows[0][2])
	tcpTotal := pct(t, rows[1][2])
	if rftpTotal < 90 || rftpTotal > 170 {
		t.Fatalf("RFTP total = %v%%, paper 122%%", rftpTotal)
	}
	if tcpTotal < 520 || tcpTotal > 720 {
		t.Fatalf("TCP total = %v%%, paper 642%%", tcpTotal)
	}
	// RDMA pays no copy cost.
	if pct(t, rows[0][5]) != 0 {
		t.Fatal("RDMA copy cost must be 0")
	}
	if pct(t, rows[1][5]) < 150 {
		t.Fatalf("TCP copy = %v%%, paper 213%%", pct(t, rows[1][5]))
	}
}

func TestISERBandwidthShape(t *testing.T) {
	res := ISERBandwidth()
	for _, row := range res.Tables[0].Rows {
		gain := pct(t, row[4])
		if gain < 0 {
			t.Fatalf("NUMA tuning should never hurt: row %v", row)
		}
		if row[0] == "write" && (row[1] == "4MB" || row[1] == "16MB") {
			if gain < 12 || gain > 25 {
				t.Fatalf("large-block write gain = %v%%, paper ≈19%%", gain)
			}
		}
		if row[0] == "read" && gain > 15 {
			t.Fatalf("read gain = %v%%, paper ≈7.6%%", gain)
		}
	}
}

func TestISERCPUShape(t *testing.T) {
	res := ISERCPU()
	for _, row := range res.Tables[0].Rows {
		ratio := pct(t, row[4])
		switch row[0] {
		case "write":
			if ratio < 2 || ratio > 4 {
				t.Fatalf("write CPU ratio = %v, paper ≈3", ratio)
			}
		case "read":
			if ratio < 1 || ratio > 1.5 {
				t.Fatalf("read CPU ratio = %v, paper: not significant", ratio)
			}
		}
	}
}

func TestWANBandwidthShape(t *testing.T) {
	res := WANBandwidth()
	// Rows are stream counts; columns block sizes. Bandwidth must be
	// non-decreasing along both axes and peak near 39 Gbps.
	var prevRow []float64
	for _, row := range res.Tables[0].Rows {
		var vals []float64
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, v)
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1]*0.99 {
				t.Fatalf("bandwidth fell with block size: %v", vals)
			}
		}
		if prevRow != nil {
			for i := range vals {
				if vals[i] < prevRow[i]*0.99 {
					t.Fatalf("bandwidth fell with streams: %v < %v", vals, prevRow)
				}
			}
		}
		prevRow = vals
	}
	peak := prevRow[len(prevRow)-1]
	if peak < 38 || peak > 40 {
		t.Fatalf("peak = %v Gbps, paper ≈97%% of 40", peak)
	}
}

func TestSSDThermalShape(t *testing.T) {
	res := SSDThermalThrottle()
	if len(res.Series) != 1 || res.Series[0].Len() == 0 {
		t.Fatal("missing series")
	}
	first := res.Series[0].Values[0]
	last := res.Series[0].Values[res.Series[0].Len()-1]
	if first < 1200 {
		t.Fatalf("healthy rate = %v MB/s, want ≈1300", first)
	}
	if last < 490 || last > 510 {
		t.Fatalf("throttled rate = %v MB/s, paper ≈500", last)
	}
}

func TestTestbedTableComplete(t *testing.T) {
	res := TestbedTable()
	if len(res.Tables[0].Rows) < 6 {
		t.Fatal("Table 1 rows missing")
	}
}

func TestResultString(t *testing.T) {
	res := TestbedTable()
	out := res.String()
	if !strings.Contains(out, "T1") || !strings.Contains(out, "Table 1") {
		t.Fatalf("render broken:\n%s", out)
	}
}

func TestCreditAblationMonotone(t *testing.T) {
	res := CreditAblation()
	s := res.Series[0]
	for i := 1; i < s.Len(); i++ {
		if s.Values[i] < s.Values[i-1]*0.99 {
			t.Fatalf("throughput fell with more credits: %v", s.Values)
		}
	}
	// 1 credit ≈ blocksize/RTT; 64 credits saturates.
	if s.Values[0] > 3 {
		t.Fatalf("1 credit should starve: %v Gbps", s.Values[0])
	}
	if s.Values[s.Len()-1] < 38 {
		t.Fatalf("deep pipeline should saturate: %v Gbps", s.Values[s.Len()-1])
	}
}

func TestDirectIOAblationShape(t *testing.T) {
	res := DirectIOAblation()
	rows := res.Tables[0].Rows
	directBW, bufBW := gbps(t, rows[0][1]), gbps(t, rows[1][1])
	directCPU, bufCPU := pct(t, rows[0][2]), pct(t, rows[1][2])
	if bufBW >= directBW {
		t.Fatalf("buffered (%v) should not beat direct (%v)", bufBW, directBW)
	}
	if bufCPU <= directCPU {
		t.Fatalf("buffered CPU (%v) should exceed direct (%v)", bufCPU, directCPU)
	}
}

func TestStorageMediaAblationOrdering(t *testing.T) {
	res := StorageMediaAblation()
	rows := res.Tables[0].Rows
	ram, ssd, hdd := gbps(t, rows[0][1]), gbps(t, rows[1][1]), gbps(t, rows[2][1])
	if !(ram > ssd && ssd > hdd) {
		t.Fatalf("media ordering wrong: tmpfs %v, ssd %v, hdd %v", ram, ssd, hdd)
	}
	// 6 HDDs ≈ 6×150MB/s ≈ 7 Gbps upper bound.
	if hdd > 8 {
		t.Fatalf("HDD-backed rate %v implausibly high", hdd)
	}
}

func TestRenderChart(t *testing.T) {
	res := CreditAblation()
	out := res.RenderChart()
	if out == "" || !strings.Contains(out, "credits-Gbps") {
		t.Fatalf("chart render broken:\n%s", out)
	}
	// Results without series render nothing.
	if TestbedTable().RenderChart() != "" {
		t.Fatal("chart for series-less result should be empty")
	}
}

func TestEndToEndExperimentSmoke(t *testing.T) {
	res := EndToEndThroughput()
	rows := res.Tables[0].Rows
	// rows: ceiling / RFTP / GridFTP.
	rftpShare := pct(t, rows[1][2])
	gridShare := pct(t, rows[2][2])
	if rftpShare < 90 {
		t.Fatalf("RFTP share = %v%%, paper 96%%", rftpShare)
	}
	if gridShare < 20 || gridShare > 40 {
		t.Fatalf("GridFTP share = %v%%, paper 30%%", gridShare)
	}
	if len(res.Series) != 2 || res.Series[0].Len() < 40 {
		t.Fatal("25-minute series missing")
	}
	// Steady state: the series is flat after warm-up.
	if res.Series[0].TailMean(0.5) <= 0 {
		t.Fatal("series empty")
	}
}

func TestBiDirectionalExperimentSmoke(t *testing.T) {
	res := BiDirectionalThroughput()
	rows := res.Tables[0].Rows
	rGain := pct(t, rows[0][3])
	gGain := pct(t, rows[1][3])
	if rGain < 50 || rGain > 100 {
		t.Fatalf("RFTP gain = %v%%, paper +83%%", rGain)
	}
	if gGain >= rGain {
		t.Fatalf("GridFTP gain (%v%%) should trail RFTP's (%v%%)", gGain, rGain)
	}
}

func TestCPUBreakdownExperimentsSmoke(t *testing.T) {
	for _, fn := range []Runner{EndToEndCPU, BiDirectionalCPU} {
		res := fn()
		if len(res.Tables[0].Rows) != 4 {
			t.Fatalf("%s: want 4 host rows", res.ID)
		}
		for _, row := range res.Tables[0].Rows {
			if pct(t, row[1]) <= 0 {
				t.Fatalf("%s: zero CPU for %s", res.ID, row[0])
			}
		}
	}
}

func TestFioCeilingSmoke(t *testing.T) {
	res := FioCeiling()
	rows := res.Tables[0].Rows
	read := gbps(t, rows[0][1])
	write := gbps(t, rows[1][1])
	if write >= read {
		t.Fatalf("write (%v) should be the narrow section (read %v)", write, read)
	}
}

func TestWANCPUSmoke(t *testing.T) {
	res := WANCPU()
	if len(res.Tables) != 2 {
		t.Fatal("want sender and receiver tables")
	}
	// CPU falls per byte as blocks grow: compare first and last column of
	// the single-stream row, normalized by the F13 bandwidths at those
	// points (already checked monotone); here just check the tables fill.
	for _, tb := range res.Tables {
		if len(tb.Rows) != 4 {
			t.Fatalf("want 4 stream rows, got %d", len(tb.Rows))
		}
	}
}

func TestSchedulerSaturationShape(t *testing.T) {
	res := SchedulerSaturation()
	checkGolden(t, "S1", res)
	good, wait := res.Series[0], res.Series[1]
	// Goodput rises from underload toward a plateau: the peak must come
	// after the first point, and the last point must hold near the peak
	// (flat, not collapsing) while p99 wait keeps growing.
	if good.Values[1] <= good.Values[0] {
		t.Fatalf("goodput not rising at low load: %v", good.Values)
	}
	peak := good.Max()
	last := good.Values[good.Len()-1]
	if last < 0.7*peak {
		t.Fatalf("goodput collapsed past the knee: last %v, peak %v", last, peak)
	}
	if wait.Values[wait.Len()-1] <= wait.Values[0] {
		t.Fatalf("p99 wait did not grow with load: %v", wait.Values)
	}
	if wait.Values[wait.Len()-1] < 2*wait.Values[wait.Len()/2] {
		t.Fatalf("p99 wait should keep growing past the knee: %v", wait.Values)
	}
	// Failure-injection table: every job done, none lost, retries observed.
	frow := res.Tables[1].Rows[0]
	if frow[0] != "40/40" || frow[1] != "0" {
		t.Fatalf("outage run lost jobs: %v", frow)
	}
	if frow[2] == "0" {
		t.Fatalf("outage run saw no retries: %v", frow)
	}
}

func TestChaosRecoveryShape(t *testing.T) {
	res := ChaosRecovery()
	checkGolden(t, "S2", res)
	// Goodput series is ordered baseline-first, then decreasing MTBF: it
	// must never rise as faults get more frequent, and the harshest point
	// must pay a real penalty against the baseline.
	good := res.Series[0]
	for i := 1; i < good.Len(); i++ {
		if good.Values[i] > good.Values[i-1]*1.01 {
			t.Fatalf("goodput rose with fault frequency: %v", good.Values)
		}
	}
	if last := good.Values[good.Len()-1]; last >= 0.9*good.Values[0] {
		t.Fatalf("harshest chaos point too cheap: %v vs baseline %v", last, good.Values[0])
	}
	// Every sweep row delivered exactly once; the chaos runs themselves
	// panic otherwise, so just check the rendered claim and that the
	// harshest row actually recovered something.
	freq := res.Tables[0]
	for _, row := range freq.Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("exactly-once column broken: %v", row)
		}
	}
	worst := freq.Rows[len(freq.Rows)-1]
	if worst[3] == "0" {
		t.Fatalf("harshest chaos row saw no recoveries: %v", worst)
	}
	// Degradation-only runs must never retransmit.
	for _, row := range res.Tables[1].Rows {
		if row[3] != "0" || row[4] != "0B" {
			t.Fatalf("degradation row retransmitted: %v", row)
		}
	}
}

func TestGrayFailureShape(t *testing.T) {
	res := GrayFailure()
	checkGolden(t, "S7", res)
	// The mitigation ladder at the 70%-sag point: each rung must recover
	// goodput, ending ≥90% of healthy while no-mitigation sits ≤60%.
	s := res.Series[0]
	if s.Len() != 3 {
		t.Fatalf("want 3 ladder points, got %d", s.Len())
	}
	for i := 1; i < s.Len(); i++ {
		if s.Values[i] < s.Values[i-1]*0.99 {
			t.Fatalf("mitigation ladder not monotone: %v", s.Values)
		}
	}
	if s.Values[0] > 60 {
		t.Fatalf("no-mitigation ablation too healthy: %v%% of baseline", s.Values[0])
	}
	if s.Values[2] < 90 {
		t.Fatalf("hedged recovery below gate: %v%% of baseline", s.Values[2])
	}
	// Table: baseline row plus 3 severities × 3 modes.
	if got := len(res.Tables[0].Rows); got != 10 {
		t.Fatalf("want 10 sweep rows, got %d", got)
	}
}

func TestFileSizeAblationMonotone(t *testing.T) {
	res := FileSizeAblation()
	s := res.Series[0]
	for i := 1; i < s.Len(); i++ {
		if s.Values[i] <= s.Values[i-1] {
			t.Fatalf("throughput should rise with file size: %v", s.Values)
		}
	}
	if s.Values[0] > 2 {
		t.Fatalf("1MB files on WAN should crawl, got %v Gbps", s.Values[0])
	}
}
