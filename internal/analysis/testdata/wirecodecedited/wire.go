// Fixture: the generated codec body was edited by hand (its append
// function negates OK); the type list and the type are unchanged.
package editedfix

//mnmwiregen:types Msg

type Msg struct {
	N  int
	OK bool
}
