// Fixture: wire_codec.go is the generator's output except for its
// //mnmwiregen:wireversion stamp, which names an older frame header.
package oldversionfix

//mnmwiregen:types Msg

type Msg struct {
	N int
}
