// Fixture: a package that lists wire types but was never run through
// mnmwiregen at all, so no wire_codec.go exists.
package codecmissing

//mnmwiregen:types Msg

type Msg struct {
	N int
}
