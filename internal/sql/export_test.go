package sql

// OldParse is the oracle parser (oracle_test.go) for this package's external
// tests, which run plans on the engines.
var OldParse = oldParse
