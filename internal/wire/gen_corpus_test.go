package wire

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

func TestGenCorpus(t *testing.T) {
	if os.Getenv("GEN_CORPUS") == "" {
		t.Skip("set GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDictDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, sd := range dictFuzzSeeds() {
		body := "go test fuzz v1\n" +
			"[]byte(" + strconv.QuoteToASCII(string(sd.defs)) + ")\n" +
			"[]byte(" + strconv.QuoteToASCII(string(sd.batch)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, sd.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
