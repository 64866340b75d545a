package appraisal

import (
	"testing"

	"repro/internal/value"
)

func TestRuleSetEvaluation(t *testing.T) {
	rules := RuleSet{
		MustRule("nonneg", "rest >= 0"),
		MustRule("budget", "spent + rest == 100"),
		MustRule("items", "len(items) <= 3"),
	}
	good := value.State{
		"rest":  value.Int(60),
		"spent": value.Int(40),
		"items": value.List(value.Str("a")),
	}
	ok, violations, err := rules.evaluate(good)
	if err != nil || !ok {
		t.Fatalf("good state rejected: %v %v", violations, err)
	}
	bad := good.Clone()
	bad["rest"] = value.Int(-5)
	bad["spent"] = value.Int(40)
	ok, violations, err = rules.evaluate(bad)
	if err != nil {
		t.Fatal(err)
	}
	if ok || len(violations) != 2 {
		t.Errorf("ok=%v violations=%v (want 2: nonneg and budget)", ok, violations)
	}
}
