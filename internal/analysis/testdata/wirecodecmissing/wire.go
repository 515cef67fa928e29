// Fixture: a package that lists wire types but was never run through
// mnmwiregen at all — no wire_codec.go exists. The rule points at the
// first listed type (alphabetically) so the fix is obvious.
package codecmissing

//mnmwiregen:types Msg

// Msg crosses the wire but has no generated codec.
type Msg struct { // want "no wire_codec.go; run mnmwiregen"
	N int
}
