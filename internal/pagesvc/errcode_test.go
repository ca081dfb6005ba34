package pagesvc

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"revelation/internal/disk"
)

// wireSentinels names every sentinel an error code can carry, in the
// order DESIGN.md lists them.
var wireSentinels = []struct {
	err  error
	name string
}{
	{disk.ErrTransient, "disk.ErrTransient"},
	{ErrFenced, "pagesvc.ErrFenced"},
	{disk.ErrPermanent, "disk.ErrPermanent"},
	{disk.ErrOutOfRange, "disk.ErrOutOfRange"},
	{disk.ErrClosed, "disk.ErrClosed"},
	{disk.ErrBadLength, "disk.ErrBadLength"},
	{disk.ErrCrashed, "disk.ErrCrashed"},
}

// TestErrCodesRoundTrip: an error wrapping a row's sentinels arrives
// wrapping exactly those sentinels, with its message kept; an unknown
// code arrives as classOther does.
func TestErrCodesRoundTrip(t *testing.T) {
	for _, r := range errCodes {
		sent := fmt.Errorf("read page 3: %w", errors.Join(r.is...))
		got := decodeErr(encodeErr(sent))
		for _, s := range wireSentinels {
			if is, was := errors.Is(got, s.err), errors.Is(sent, s.err); is != was {
				t.Errorf("code %d: errors.Is(%v, %s) = %v, %v as sent", r.code, got, s.name, is, was)
			}
		}
		if !strings.Contains(got.Error(), "read page 3") {
			t.Errorf("code %d: %q lost the message", r.code, got)
		}
	}
	other := decodeErr(append([]byte{classOther}, "m"...))
	if got := decodeErr(append([]byte{99}, "m"...)); got.Error() != other.Error() || errors.Unwrap(got) != nil {
		t.Errorf("unknown code decodes as %q, want %q", got, other)
	}
}

// TestErrCodesMatchDesign holds DESIGN.md's error-code table equal to
// what decodeErr gives each code.
func TestErrCodesMatchDesign(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("| code | arrives wrapping | retry class |\n|---|---|---|\n")
	for code := byte(0); code <= errCodes[len(errCodes)-1].code; code++ {
		got := decodeErr([]byte{code, 'm'})
		var names []string
		for _, s := range wireSentinels {
			if errors.Is(got, s.err) {
				names = append(names, "`"+s.name+"`")
			}
		}
		class := "none (not retried)"
		switch {
		case disk.Retryable(got):
			class = "transient"
		case errors.Is(got, disk.ErrPermanent):
			class = "permanent"
		}
		wraps := strings.Join(names, ", ")
		if wraps == "" {
			wraps = "nothing (the message alone)"
		}
		fmt.Fprintf(&b, "| %d | %s | %s |\n", code, wraps, class)
	}
	b.WriteString("\n") // the table ends here: no row missing at its foot
	if !strings.Contains(string(design), b.String()) {
		t.Errorf("DESIGN.md lacks the error-code table the wire has:\n%s", b.String())
	}
}
