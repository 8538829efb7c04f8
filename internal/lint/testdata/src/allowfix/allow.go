// Package allowfix is the allow-directive fixture: one directive names a
// rule rblint does not have; the others name known rules or "all".
package allowfix

//rblint:allow goleak
var unknown = 1

var trailing = 2 //rblint:allow determinism

//rblint:allow lockstate rbconstruct,
var known = 3

//rblint:allow all
var everything = 4
