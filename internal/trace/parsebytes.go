package trace

// Byte-slice field scanning for the trace parsers.
//
// The readers parse millions of lines per replay; with bufio.Scanner
// handing out its internal buffer via Bytes(), a line costs zero
// allocations when every field stays a sub-slice of it. Numbers go
// through strconv on string(field): the conversion of an argument that
// does not escape uses a stack buffer for up to 32 bytes, which covers
// every numeric field of the three formats, and strconv copies the
// string only into the error it returns.

// cutFieldBytes is cutField over a byte slice: it returns the leading
// space/tab-delimited field and the remainder with its leading
// separators removed, allocating nothing.
func cutFieldBytes(s []byte) (field, rest []byte) {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	j := i
	for j < len(s) && s[j] != ' ' && s[j] != '\t' {
		j++
	}
	k := j
	for k < len(s) && (s[k] == ' ' || s[k] == '\t') {
		k++
	}
	return s[i:j], s[k:]
}
