package persist

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestGenCorpus rewrites testdata/fuzz/FuzzWALReplay from walFuzzSeeds, so
// the committed corpus and the in-code seeds cannot drift apart.
func TestGenCorpus(t *testing.T) {
	if os.Getenv("GEN_CORPUS") == "" {
		t.Skip("set GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWALReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range walFuzzSeeds() {
		body := "go test fuzz v1\n[]byte(" + strconv.QuoteToASCII(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
