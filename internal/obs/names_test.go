package obs

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// metricToken matches a metric name, or a prefix wildcard such as
// `menos_wire_*` (captured with its trailing underscore).
var metricToken = regexp.MustCompile(`menos_[a-z0-9_]*`)

// TestMetricCatalogDocumented keeps docs/OBSERVABILITY.md and names.go
// in step: every registered name is documented by its full name (a
// histogram's _bucket/_sum/_count series count), and every full name
// the doc mentions is registered. A token ending in "_" is a prefix
// wildcard; it must still prefix some registered name.
func TestMetricCatalogDocumented(t *testing.T) {
	src, err := os.ReadFile("names.go")
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`"(menos_[a-z0-9_]+)"`).FindAllStringSubmatch(string(src), -1) {
		registered[m[1]] = true
	}
	if len(registered) == 0 {
		t.Fatal("no metric names found in names.go")
	}

	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, tok := range metricToken.FindAllString(string(doc), -1) {
		if strings.HasSuffix(tok, "_") {
			if !prefixesAny(tok, registered) {
				t.Errorf("doc wildcard %s* matches no registered metric", tok)
			}
			continue
		}
		name := tok
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(tok, suffix); base != tok && registered[base] {
				name = base
			}
		}
		if !registered[name] {
			t.Errorf("doc names %s, which names.go does not register", tok)
		}
		documented[name] = true
	}
	var missing []string
	for name := range registered {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s is registered but missing from docs/OBSERVABILITY.md", name)
	}
}

func prefixesAny(prefix string, names map[string]bool) bool {
	for name := range names {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
