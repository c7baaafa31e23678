package sim

import (
	"fmt"
	"strconv"
)

// The consensus problems in FLM85 use Boolean inputs/outputs (Byzantine
// agreement, weak agreement, firing squad) or real-valued ones
// (approximate agreement, clock synchronization). Inputs, payload
// fragments, and decisions are canonically encoded strings so that
// behavior equality is byte equality.

// EncodeBool canonically encodes a Boolean as "0" or "1".
func EncodeBool(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// BoolInput returns the Input encoding of a Boolean.
func BoolInput(b bool) Input { return Input(EncodeBool(b)) }

// EncodeReal canonically encodes a float64 with full round-trip
// precision.
func EncodeReal(x float64) string {
	return strconv.FormatFloat(x, 'g', 17, 64)
}

// DecodeReal parses a canonical real.
func DecodeReal(s string) (float64, error) {
	x, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("sim: %q is not a canonical real: %w", s, err)
	}
	return x, nil
}

// RealInput returns the Input encoding of a real value.
func RealInput(x float64) Input { return Input(EncodeReal(x)) }

// EncodeInt canonically encodes an integer.
func EncodeInt(n int) string { return strconv.Itoa(n) }

// DecodeInt parses a canonical integer.
func DecodeInt(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("sim: %q is not a canonical integer: %w", s, err)
	}
	return n, nil
}
