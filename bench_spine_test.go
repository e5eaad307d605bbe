package cep

import (
	"os/exec"
	"testing"
)

// TestBenchSpine runs the benchmark spine's own tests (bench/, a nested
// module that `go test ./...` does not reach): a short pass over every
// workload, the correctness gate and the golden match digests. A change
// that breaks the spine's build or its match digests fails here.
func TestBenchSpine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the bench module's tests, which take seconds")
	}
	out, err := exec.Command("go", "-C", "bench", "test", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go -C bench test ./...: %v\n%s", err, out)
	}
}
