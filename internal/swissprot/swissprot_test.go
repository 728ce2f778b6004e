package swissprot

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestAttrNames(t *testing.T) {
	if NumAttrs != 25 {
		t.Fatalf("NumAttrs = %d, want 25", NumAttrs)
	}
	seen := make(map[string]bool)
	for i := range NumAttrs {
		n := AttrName(i)
		if n == "" {
			t.Fatalf("attr %d empty", i)
		}
		if seen[n] {
			t.Fatalf("duplicate attr %q", n)
		}
		seen[n] = true
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(rand.New(rand.NewSource(5)))
	b := Generate(rand.New(rand.NewSource(5)))
	if a != b {
		t.Fatal("same seed produced different entries")
	}
	c := Generate(rand.New(rand.NewSource(6)))
	if a == c {
		t.Fatal("different seeds produced identical entries")
	}
}

func TestGenerateShape(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		e := Generate(r)
		// Sequence length matches the declared attribute and is in the
		// 100–400 residue band.
		seqLen, err := strconv.Atoi(e.Fields[4])
		if err != nil {
			t.Fatalf("seq_length not numeric: %q", e.Fields[4])
		}
		if len(e.Fields[24]) != seqLen || seqLen < 100 || seqLen >= 400 {
			t.Fatalf("sequence length %d vs declared %d", len(e.Fields[24]), seqLen)
		}
		for _, aa := range e.Fields[24] {
			if !strings.ContainsRune("ACDEFGHIKLMNPQRSTVWY", aa) {
				t.Fatalf("non-amino-acid %q in sequence", aa)
			}
		}
		// Entry name embeds the gene and species prefix.
		if !strings.Contains(e.Fields[0], "_") {
			t.Fatalf("entry_name %q", e.Fields[0])
		}
		// Dates look like DD-MMM-YYYY.
		if len(e.Fields[5]) != 11 || e.Fields[5][2] != '-' {
			t.Fatalf("date %q", e.Fields[5])
		}
		// Every field is populated except the optional ones (12, 15).
		for fi, f := range e.Fields {
			if f == "" && fi != 12 && fi != 15 {
				t.Fatalf("field %d (%s) empty", fi, AttrName(fi))
			}
		}
	}
}

func TestValues(t *testing.T) {
	e := Generate(rand.New(rand.NewSource(1)))
	sv := e.StringValue(8)
	if sv.AsString() != e.Fields[8] {
		t.Fatal("StringValue")
	}
	iv1, iv2 := e.IntValue(8), e.IntValue(8)
	if iv1 != iv2 {
		t.Fatal("IntValue not deterministic")
	}
	if iv1.AsInt() < 0 {
		t.Fatal("IntValue negative")
	}
	// Distinct fields hash to distinct values with overwhelming
	// probability.
	if e.IntValue(8) == e.IntValue(24) {
		t.Fatal("suspicious hash collision")
	}
}

func TestStringDatasetHeavierThanInteger(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var strBytes, intBytes int
	for i := 0; i < 20; i++ {
		e := Generate(r)
		for a := 0; a < NumAttrs; a++ {
			strBytes += len(e.Fields[a])
			intBytes += 8
		}
	}
	if strBytes <= intBytes {
		t.Fatalf("string dataset (%dB) should outweigh integer dataset (%dB)", strBytes, intBytes)
	}
}
