package metrics

import (
	"bytes"
	"testing"
)

// TestWriterEscapesLabelValues pins the label-value escapes of the text
// format: a backslash, a double quote and a line feed are escaped, and
// every other character, a tab or non-ASCII included, is written as is.
func TestWriterEscapesLabelValues(t *testing.T) {
	var buf bytes.Buffer
	NewWriter(&buf).Family("x_total", "counter", "Escapes.").Sample(1,
		"a", `back\slash`, "b", `quote"d`, "c", "line\nfeed", "d", "tab\tid", "e", "ünï", "f", "")
	want := "# HELP x_total Escapes.\n# TYPE x_total counter\n" +
		`x_total{a="back\\slash",b="quote\"d",c="line\nfeed",d="tab` + "\t" + `id",e="ünï",f=""} 1` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("got\n%s\nwant\n%s", got, want)
	}
}
