package predict

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadImageLimit: readImage returns an image of up to limit bytes whole,
// from a stream or a file, and refuses a longer one by its limit from either.
func TestReadImageLimit(t *testing.T) {
	const limit = 100
	path := filepath.Join(t.TempDir(), "image")
	for _, n := range []int{0, 1, limit, limit + 1, 3 * limit} {
		img := strings.Repeat("x", n)
		if err := os.WriteFile(path, []byte(img), 0o600); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for name, rd := range map[string]io.Reader{"stream": strings.NewReader(img), "file": f} {
			data, err := readImage(rd, limit)
			switch {
			case n > limit && (err == nil || !strings.Contains(err.Error(), "100-byte limit")):
				t.Errorf("%s of %d bytes: want the limit error, got %v", name, n, err)
			case n <= limit && (err != nil || string(data) != img):
				t.Errorf("%s of %d bytes: read %d bytes, %v", name, n, len(data), err)
			}
		}
		f.Close()
	}
}
