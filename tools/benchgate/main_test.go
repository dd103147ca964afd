package main

import "testing"

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkE1AheavyLoad-8  \t 3\t 417935374 ns/op\t  56 B/op\t       2 allocs/op")
	if !ok {
		t.Fatal("benchmark line not parsed")
	}
	if r.Name != "E1AheavyLoad" || r.Gomaxprocs != 8 || r.Iterations != 3 || r.NsPerOp != 417935374 || r.BytesPerOp != 56 || r.AllocsPerOp != 2 {
		t.Fatalf("parsed %+v", r)
	}
	// Without -benchmem columns or the "-N" suffix (go test omits it at
	// GOMAXPROCS=1, so that must be the default).
	r, ok = parseLine("BenchmarkE5OneShot 	      10	 101202303 ns/op")
	if !ok || r.Gomaxprocs != 1 || r.NsPerOp != 101202303 || r.AllocsPerOp != 0 {
		t.Fatalf("parsed %+v ok=%v", r, ok)
	}
	// Sub-benchmark names keep their own hyphens; only the digit tail is
	// the GOMAXPROCS suffix.
	r, ok = parseLine("BenchmarkServeThroughput/proto=binary/shards=4-4 	 100	 2000 ns/op")
	if !ok || r.Name != "ServeThroughput/proto=binary/shards=4" || r.Gomaxprocs != 4 {
		t.Fatalf("parsed %+v ok=%v", r, ok)
	}
	for _, noise := range []string{
		"goos: linux", "PASS", "ok  \trepro\t1.2s", "", "BenchmarkBroken x ns/op",
	} {
		if _, ok := parseLine(noise); ok {
			t.Fatalf("noise line %q parsed as benchmark", noise)
		}
	}
}

func TestFindResult(t *testing.T) {
	results := []Result{
		{Name: "ServeThroughput/proto=binary/shards=4", Gomaxprocs: 1, NsPerOp: 400},
		{Name: "ServeThroughput/proto=binary/shards=4", Gomaxprocs: 4, NsPerOp: 100},
		{Name: "ServeThroughput/proto=binary/shards=1", Gomaxprocs: 4, NsPerOp: 300},
	}
	r, err := findResult(results, "ServeThroughput/proto=binary/shards=4@4")
	if err != nil || r.NsPerOp != 100 {
		t.Fatalf("pinned ref: %+v, %v", r, err)
	}
	r, err = findResult(results, "ServeThroughput/proto=binary/shards=1")
	if err != nil || r.NsPerOp != 300 {
		t.Fatalf("unambiguous bare ref: %+v, %v", r, err)
	}
	if _, err := findResult(results, "ServeThroughput/proto=binary/shards=4"); err == nil {
		t.Error("ambiguous bare ref accepted")
	}
	if _, err := findResult(results, "NoSuchBench@4"); err == nil {
		t.Error("unknown ref accepted")
	}
	if _, err := findResult(results, "ServeThroughput/proto=binary/shards=4@x"); err == nil {
		t.Error("malformed gomaxprocs accepted")
	}
}

func TestCheckAsserts(t *testing.T) {
	results := []Result{
		{Name: "ServeAllocateLatency/proto=binary/shards=4", Gomaxprocs: 4, NsPerOp: 90, AllocsPerOp: 2},
		{Name: "ServeAllocateLatency/proto=json/shards=4", Gomaxprocs: 4, NsPerOp: 120, AllocsPerOp: 30},
	}
	ok := listFlag{"allocs_per_op:ServeAllocateLatency/proto=binary/shards=4@4<=ServeAllocateLatency/proto=json/shards=4@4"}
	if err := checkAsserts(ok, results); err != nil {
		t.Fatalf("passing gate failed: %v", err)
	}
	flipped := listFlag{"allocs_per_op:ServeAllocateLatency/proto=json/shards=4@4<=ServeAllocateLatency/proto=binary/shards=4@4"}
	if err := checkAsserts(flipped, results); err == nil {
		t.Error("violated gate passed")
	}
	for _, bad := range []string{"nocolon", "m:onlyoneref", "nosuchmetric:ServeAllocateLatency/proto=json/shards=4@4<=ServeAllocateLatency/proto=binary/shards=4@4"} {
		if err := checkAsserts(listFlag{bad}, results); err == nil {
			t.Errorf("malformed -assert-le %q accepted", bad)
		}
	}
}

// TestScaledAsserts: a factor* prefix scales a ref's metric, giving CI
// multiplicative gates like "2x the 1-replica throughput must not exceed
// the 3-replica throughput".
func TestScaledAsserts(t *testing.T) {
	results := []Result{
		{Name: "ClusterThroughput/replicas=1", Gomaxprocs: 4, NsPerOp: 100,
			Extra: map[string]float64{"balls_per_s": 1_000_000}},
		{Name: "ClusterThroughput/replicas=3", Gomaxprocs: 4, NsPerOp: 40,
			Extra: map[string]float64{"balls_per_s": 2_500_000}},
	}
	gate := listFlag{"balls_per_s:2*ClusterThroughput/replicas=1@4<=ClusterThroughput/replicas=3@4"}
	if err := checkAsserts(gate, results); err != nil {
		t.Fatalf("2x scaling gate failed at 2.5x: %v", err)
	}
	tight := listFlag{"balls_per_s:3*ClusterThroughput/replicas=1@4<=ClusterThroughput/replicas=3@4"}
	if err := checkAsserts(tight, results); err == nil {
		t.Error("3x gate passed at 2.5x scaling")
	}
	// The factor may sit on either side.
	rhs := listFlag{"balls_per_s:ClusterThroughput/replicas=3@4<=3*ClusterThroughput/replicas=1@4"}
	if err := checkAsserts(rhs, results); err != nil {
		t.Fatalf("right-hand factor failed: %v", err)
	}
	if err := checkAsserts(listFlag{"ns_per_op:x*A@1<=A@1"}, results); err == nil {
		t.Error("malformed factor accepted")
	}
}

func TestCustomMetricColumns(t *testing.T) {
	r, ok := parseLine("BenchmarkChurnSteadyState/aheavy 	 200	 65718 ns/op	 7790806 balls/s	 15216 epochs/s	 8280 B/op	 3 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.Extra["epochs_per_s"] != 15216 || r.Extra["balls_per_s"] != 7790806 {
		t.Fatalf("custom metrics: %v", r.Extra)
	}
}

// TestRepeatedResultsMedian: repeated results of one benchmark at one
// GOMAXPROCS (go test -count) resolve to their median, the mean of the
// middle two for an even count, in every column; a bare ref that matches
// results at two GOMAXPROCS still fails.
func TestRepeatedResultsMedian(t *testing.T) {
	var results []Result
	for _, ns := range []float64{143.8, 86.3, 90, 88, 300} {
		results = append(results, Result{Name: "AheavyAgentHeavy", Gomaxprocs: 2, NsPerOp: ns, BytesPerOp: ns,
			Extra: map[string]float64{"balls_per_s": 1000 / ns}})
	}
	r, err := findResult(results, "AheavyAgentHeavy@2")
	if err != nil || r.NsPerOp != 90 || r.BytesPerOp != 90 || r.Extra["balls_per_s"] != 1000.0/90 {
		t.Fatalf("odd count: %+v, %v", r, err)
	}
	r, err = findResult(results[:4], "AheavyAgentHeavy")
	if err != nil || r.NsPerOp != 89 || r.BytesPerOp != 89 {
		t.Fatalf("even count: %+v, %v", r, err)
	}
	for _, ns := range []float64{150, 160, 140} {
		results = append(results, Result{Name: "AheavyAgentHeavy", Gomaxprocs: 1, NsPerOp: ns})
	}
	if _, err := findResult(results, "AheavyAgentHeavy"); err == nil {
		t.Error("bare ref over two GOMAXPROCS accepted")
	}
	// The gate compares medians (90 against 150): the one slow run at
	// GOMAXPROCS 2, slower than every run at GOMAXPROCS 1, does not decide
	// it.
	if err := checkAsserts(listFlag{"ns_per_op:AheavyAgentHeavy@2<=AheavyAgentHeavy@1"}, results); err != nil {
		t.Fatalf("median gate failed: %v", err)
	}
	if err := checkAsserts(listFlag{"ns_per_op:AheavyAgentHeavy@1<=AheavyAgentHeavy@2"}, results); err == nil {
		t.Error("median gate passed with medians 150 > 90")
	}
}
