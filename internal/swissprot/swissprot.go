// Package swissprot synthesizes protein-database entries shaped like
// SWISS-PROT records. The paper's workload generator (§6.1) feeds on "a
// single universal relation based on the SWISS-PROT protein database,
// which has 25 attributes"; large string fields (sequences, descriptions,
// taxonomies) make tuples heavy — the paper's "string" dataset — while
// hashing every field to an integer yields the light "integer" dataset.
// Entries are generated deterministically from a seeded source, standing
// in for the real (licensed) database dump.
package swissprot

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"orchestra/internal/value"
)

// NumAttrs is the width of the universal relation.
const NumAttrs = 25

// attrNames mirrors the principal fields of a SWISS-PROT flat-file entry.
var attrNames = [NumAttrs]string{
	"entry_name", "accession", "data_class", "molecule_type", "seq_length",
	"date_created", "date_seq_update", "date_ann_update", "description",
	"gene_name", "gene_synonyms", "organism_species", "organelle",
	"taxonomy", "taxonomy_id", "organism_host", "reference_titles",
	"comments", "db_references", "keywords", "feature_table",
	"protein_existence", "evidence_codes", "crc64", "sequence",
}

// AttrName returns the i-th attribute name.
func AttrName(i int) string { return attrNames[i] }

// Entry is one synthesized universal-relation row (string form).
type Entry struct {
	Fields [NumAttrs]string
}

var (
	aminoAcids = "ACDEFGHIKLMNPQRSTVWY"
	species    = []string{
		"Homo sapiens", "Mus musculus", "Rattus norvegicus", "Danio rerio",
		"Drosophila melanogaster", "Caenorhabditis elegans",
		"Saccharomyces cerevisiae", "Escherichia coli", "Arabidopsis thaliana",
		"Xenopus laevis", "Gallus gallus", "Bos taurus",
	}
	lineages = []string{
		"Eukaryota; Metazoa; Chordata; Craniata; Vertebrata; Mammalia",
		"Eukaryota; Metazoa; Arthropoda; Insecta; Diptera",
		"Eukaryota; Fungi; Ascomycota; Saccharomycetes",
		"Bacteria; Proteobacteria; Gammaproteobacteria; Enterobacterales",
		"Eukaryota; Viridiplantae; Streptophyta; Magnoliopsida",
	}
	keywordPool = []string{
		"ATP-binding", "Cytoplasm", "Membrane", "Phosphoprotein", "Kinase",
		"Transferase", "Zinc-finger", "DNA-binding", "Transcription",
		"Signal", "Glycoprotein", "Secreted", "Repeat", "Metal-binding",
		"Nucleotide-binding", "Transport", "Ion channel", "Receptor",
	}
	descWords = []string{
		"putative", "probable", "protein", "kinase", "receptor", "binding",
		"factor", "subunit", "alpha", "beta", "gamma", "precursor",
		"mitochondrial", "transporter", "regulator", "dehydrogenase",
		"synthase", "polymerase", "ligase", "homolog", "domain-containing",
	}
	featureKinds = []string{"CHAIN", "DOMAIN", "ACT_SITE", "BINDING", "HELIX", "STRAND", "MOD_RES"}
)

func randWord(r *rand.Rand, pool []string) string { return pool[r.Intn(len(pool))] }

// titleCase uppercases the first letter of each space-separated word
// (ASCII only; avoids the deprecated strings.Title).
func titleCase(s string) string {
	words := strings.Split(s, " ")
	for i, w := range words {
		if w != "" && w[0] >= 'a' && w[0] <= 'z' {
			words[i] = string(w[0]-'a'+'A') + w[1:]
		}
	}
	return strings.Join(words, " ")
}

func randWords(r *rand.Rand, pool []string, n int, sep string) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = pool[r.Intn(len(pool))]
	}
	return strings.Join(parts, sep)
}

func randSeq(r *rand.Rand, n int) string {
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.WriteByte(aminoAcids[r.Intn(len(aminoAcids))])
	}
	return b.String()
}

func randDate(r *rand.Rand) string {
	return fmt.Sprintf("%02d-%s-%d", 1+r.Intn(28),
		[]string{"JAN", "FEB", "MAR", "APR", "MAY", "JUN", "JUL", "AUG", "SEP", "OCT", "NOV", "DEC"}[r.Intn(12)],
		1986+r.Intn(21))
}

// Generate synthesizes one entry from the random source. Identical source
// states produce identical entries.
func Generate(r *rand.Rand) Entry {
	var e Entry
	seqLen := 100 + r.Intn(300)
	sp := randWord(r, species)
	gene := fmt.Sprintf("%c%c%c%d",
		'A'+rune(r.Intn(26)), 'a'+rune(r.Intn(26)), 'a'+rune(r.Intn(26)), 1+r.Intn(9))
	e.Fields[0] = fmt.Sprintf("%s_%s", strings.ToUpper(gene), strings.ToUpper(sp[:4]))
	e.Fields[1] = fmt.Sprintf("%c%05d", 'O'+rune(r.Intn(4)), r.Intn(100000))
	e.Fields[2] = []string{"Reviewed", "Unreviewed"}[r.Intn(2)]
	e.Fields[3] = "PRT"
	e.Fields[4] = fmt.Sprintf("%d", seqLen)
	e.Fields[5] = randDate(r)
	e.Fields[6] = randDate(r)
	e.Fields[7] = randDate(r)
	e.Fields[8] = titleCase(randWords(r, descWords, 4+r.Intn(6), " "))
	e.Fields[9] = gene
	e.Fields[10] = randWords(r, descWords, 1+r.Intn(3), ", ")
	e.Fields[11] = sp
	e.Fields[12] = []string{"", "Mitochondrion", "Chloroplast", "Plasmid"}[r.Intn(4)]
	e.Fields[13] = randWord(r, lineages)
	e.Fields[14] = fmt.Sprintf("%d", 1000+r.Intn(999000))
	e.Fields[15] = []string{"", randWord(r, species)}[r.Intn(2)]
	e.Fields[16] = titleCase(randWords(r, descWords, 6+r.Intn(8), " "))
	e.Fields[17] = "FUNCTION: " + randWords(r, descWords, 8+r.Intn(10), " ")
	e.Fields[18] = fmt.Sprintf("EMBL:%c%05d; PDB:%d%c%c%c;",
		'A'+rune(r.Intn(26)), r.Intn(100000), 1+r.Intn(8),
		'A'+rune(r.Intn(26)), 'A'+rune(r.Intn(26)), 'A'+rune(r.Intn(26)))
	e.Fields[19] = randWords(r, keywordPool, 3+r.Intn(5), "; ")
	e.Fields[20] = fmt.Sprintf("%s 1..%d; %s %d..%d",
		randWord(r, featureKinds), seqLen,
		randWord(r, featureKinds), 1+r.Intn(seqLen/2), seqLen/2+r.Intn(seqLen/2))
	e.Fields[21] = fmt.Sprintf("%d", 1+r.Intn(5))
	e.Fields[22] = fmt.Sprintf("ECO:%07d", r.Intn(10000000))
	e.Fields[23] = fmt.Sprintf("%016X", r.Uint64())
	e.Fields[24] = randSeq(r, seqLen)
	return e
}

// StringValue returns attribute i as a string Value (the "string"
// dataset).
func (e *Entry) StringValue(i int) value.Value { return value.String(e.Fields[i]) }

// IntValue returns attribute i hashed to an integer Value (the paper's
// "integer" dataset, "where we substituted integer hash values for each
// string").
func (e *Entry) IntValue(i int) value.Value {
	h := fnv.New64a()
	h.Write([]byte(e.Fields[i]))
	return value.Int(int64(h.Sum64() & 0x7fffffffffffffff))
}
