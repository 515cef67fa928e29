// Fixture: a //mnmwiregen:types directive naming things that are not
// concrete types declared in this package — an undeclared name, a
// qualified (foreign) name, an interface, an alias and a function. Each
// is reported at the directive — a line comment, so the expectations live
// in the wirecodec test rather than in want comments.
package badnamefix

import "strings"

//mnmwiregen:types Good Nope strings.Builder Iface Alias Fn

type Good struct{ N int }

type Iface interface{ M() }

type Alias = strings.Builder

func Fn() {}
