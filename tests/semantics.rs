//! Table-driven XQ semantics: tricky (document, query, expected) cases,
//! each checked on **every** engine. These pin behaviours the denotational
//! semantics implies but that are easy to break in an optimizer: document
//! order across axes, duplicate multiplicity of nested loops, constructor
//! scoping, condition short-circuiting, and whitespace/text handling.

use xmldb_core::{Database, EngineKind};

struct Case {
    name: &'static str,
    doc: &'static str,
    query: &'static str,
    expected: &'static str,
}

const CASES: &[Case] = &[
    Case {
        name: "empty-query",
        doc: "<a/>",
        query: "()",
        expected: "",
    },
    Case {
        name: "root-element",
        doc: "<a><b/></a>",
        query: "/*",
        expected: "<a><b/></a>",
    },
    Case {
        name: "child-vs-descendant",
        doc: "<a><b><c/></b><c/></a>",
        query: "<r>{ /a/c }</r>",
        expected: "<r><c/></r>",
    },
    Case {
        name: "descendant-finds-nested",
        doc: "<a><b><c>1</c></b><c>2</c></a>",
        query: "<r>{ for $c in //c return $c }</r>",
        expected: "<r><c>1</c><c>2</c></r>",
    },
    Case {
        name: "document-order-mixed-depths",
        doc: "<a><x>1</x><b><x>2</x></b><x>3</x></a>",
        query: "for $x in //x return $x",
        expected: "<x>1</x><x>2</x><x>3</x>",
    },
    Case {
        name: "nested-for-multiplicity",
        // Two outer bindings × the same inner nodes: output repeats.
        doc: "<a><b/><b/><c>x</c></a>",
        query: "for $b in /a/b return for $c in /a/c return $c",
        expected: "<c>x</c><c>x</c>",
    },
    Case {
        name: "self-nested-descendant",
        // //b under a b: the outer loop sees both b's; the inner only the
        // nested one (descendant excludes self).
        doc: "<a><b><b>deep</b></b></a>",
        query: "for $outer in //b return <hit>{ for $inner in $outer//b return $inner }</hit>",
        expected: "<hit><b>deep</b></hit><hit/>",
    },
    Case {
        name: "star-is-elements-only",
        doc: "<a>text<b/>more</a>",
        query: "<r>{ for $x in /a/* return $x }</r>",
        expected: "<r><b/></r>",
    },
    Case {
        name: "text-step",
        doc: "<a>one<b>two</b>three</a>",
        query: "<r>{ /a/text() }</r>",
        expected: "<r>onethree</r>",
    },
    Case {
        name: "descendant-text",
        doc: "<a>one<b>two</b>three</a>",
        query: "<r>{ for $t in /a//text() return $t }</r>",
        expected: "<r>onetwothree</r>",
    },
    Case {
        name: "constructor-copies-subtree",
        doc: "<a><b><c>x</c></b></a>",
        query: "<wrap>{ /a/b }</wrap>",
        expected: "<wrap><b><c>x</c></b></wrap>",
    },
    Case {
        name: "empty-constructor-per-binding",
        // The strict-merging counterexample shape.
        doc: "<lib><j><n>1</n></j><j/></lib>",
        query: "for $j in //j return <out>{ for $n in $j/n return $n }</out>",
        expected: "<out><n>1</n></out><out/>",
    },
    Case {
        name: "if-true-condition",
        doc: "<a><b/></a>",
        query: "if (true()) then <yes/> else <no/>",
        expected: "<yes/>",
    },
    Case {
        name: "if-not-true",
        doc: "<a/>",
        query: "if (not(true())) then <yes/> else <no/>",
        expected: "<no/>",
    },
    Case {
        name: "some-exists",
        doc: "<a><b/><c/></a>",
        query: "if (some $x in /a/c satisfies true()) then <found/> else ()",
        expected: "<found/>",
    },
    Case {
        name: "some-empty-axis-is-false",
        doc: "<a><b/></a>",
        query: "if (some $x in /a/zzz satisfies true()) then <found/> else <none/>",
        expected: "<none/>",
    },
    Case {
        name: "eq-const-true",
        doc: "<a><n>Ana</n><n>Bob</n></a>",
        query: "for $t in //n/text() return if ($t = \"Ana\") then <ana/> else ()",
        expected: "<ana/>",
    },
    Case {
        name: "eq-const-char-exact",
        doc: "<a><n>Ana</n><n>Ana </n></a>",
        query: "for $t in //n/text() return if ($t = \"Ana\") then <hit/> else ()",
        expected: "<hit/>",
    },
    Case {
        name: "eq-var-pairs",
        doc: "<a><x>k</x><y>k</y><y>other</y></a>",
        query: "for $x in //x/text() return for $y in //y/text() return \
                if ($x = $y) then <pair/> else ()",
        expected: "<pair/>",
    },
    Case {
        name: "and-short-circuit-structure",
        doc: "<a><b>yes</b></a>",
        query: "if ((some $t in //b/text() satisfies $t = \"yes\") and true()) \
                then <ok/> else ()",
        expected: "<ok/>",
    },
    Case {
        name: "or-right-only",
        doc: "<a><b>x</b></a>",
        query: "for $t in //b/text() return \
                if ($t = \"nope\" or $t = \"x\") then <ok/> else ()",
        expected: "<ok/>",
    },
    Case {
        name: "nested-some",
        doc: "<lib><j><a><t>k</t></a></j><j><a/></j></lib>",
        query: "for $j in //j return \
                if (some $a in $j/a satisfies some $t in $a/t satisfies true()) \
                then <deep/> else <shallow/>",
        expected: "<deep/><shallow/>",
    },
    Case {
        name: "sequence-order",
        doc: "<a><b>1</b></a>",
        query: "(<first/>, //b, <last/>)",
        expected: "<first/><b>1</b><last/>",
    },
    Case {
        name: "literal-text-in-constructor",
        doc: "<a/>",
        // `{ }` is the empty enclosed expression and contributes nothing.
        query: "<msg>hello { } world</msg>",
        expected: "<msg>hello  world</msg>",
    },
    Case {
        name: "variable-rebinding-shadow",
        doc: "<a><b><c>x</c></b></a>",
        query: "for $v in /a/b return for $v in $v/c return $v",
        expected: "<c>x</c>",
    },
    Case {
        name: "multi-step-path-order",
        doc: "<a><b><c>1</c></b><b><c>2</c><c>3</c></b></a>",
        query: "/a/b/c",
        expected: "<c>1</c><c>2</c><c>3</c>",
    },
    Case {
        name: "descendant-duplicates-kept",
        // Bag semantics of the multi-step descendant desugar: nested b's
        // produce the same c twice via different intermediate bindings.
        doc: "<a><b><b><c>x</c></b></b></a>",
        query: "for $c in //b//c return $c",
        expected: "<c>x</c><c>x</c>",
    },
    Case {
        name: "root-var-output",
        doc: "<a>t</a>",
        query: "<copy>{ $root }</copy>",
        expected: "<copy><a>t</a></copy>",
    },
    Case {
        name: "deep-single-spine",
        doc: "<a><b><c><d><e>bottom</e></d></c></b></a>",
        query: "//e",
        expected: "<e>bottom</e>",
    },
    Case {
        name: "ghost-everything",
        doc: "<a><b/></a>",
        query: "<r>{ for $x in //ghost return <never/> }</r>",
        expected: "<r/>",
    },
    Case {
        name: "entities-roundtrip-through-engines",
        doc: "<a><n>x &amp; y &lt; z</n></a>",
        query: "/a/n/text()",
        expected: "x &amp; y &lt; z",
    },
    Case {
        name: "entity-in-comparison",
        doc: "<a><n>x &amp; y</n></a>",
        query: "for $t in //n/text() return if ($t = \"x & y\") then <hit/> else ()",
        expected: "<hit/>",
    },
    Case {
        name: "cdata-content",
        doc: "<a><![CDATA[<raw & text>]]></a>",
        query: "/a/text()",
        expected: "&lt;raw &amp; text&gt;",
    },
    Case {
        name: "condition-on-outer-var-in-inner-loop",
        doc: "<lib><j><v/><n>1</n></j><j><n>2</n></j></lib>",
        query: "for $j in //j return for $n in $j/n return \
                if (some $v in $j/v satisfies true()) then $n else ()",
        expected: "<n>1</n>",
    },
];

#[test]
fn semantics_table_all_engines() {
    for case in CASES {
        let db = Database::in_memory();
        db.load_document("doc", case.doc)
            .unwrap_or_else(|e| panic!("{}: bad doc: {e}", case.name));
        for engine in EngineKind::ALL {
            let got = db
                .query("doc", case.query, engine)
                .unwrap_or_else(|e| panic!("{} failed on {engine}: {e}", case.name));
            assert_eq!(
                got.to_xml(),
                case.expected,
                "{} on {engine} (query: {})",
                case.name,
                case.query
            );
        }
    }
}

/// The result's shape — bytes *and* item count — on every engine equals
/// M1's, which builds the result as a DOM: adjacent top-level text is one
/// item, only a childless element self-closes, `$root` writes the
/// document's children, and a left-outer group with no match is an empty
/// element even when it is the last one.
#[test]
fn result_items_match_m1_on_every_engine() {
    let cases: &[(&str, &str, &str, usize)] = &[
        (
            "<a><name>Ana</name><name>Bob</name></a>",
            "for $t in //name/text() return $t",
            "AnaBob",
            1,
        ),
        ("<a/>", "<a>{()}</a>", "<a/>", 1),
        ("<a><e/><f>x</f><e/></a>", "//e", "<e/><e/>", 2),
        ("<a><e/>t</a>", "$root", "<a><e/>t</a>", 1),
        (
            "<a><e/>t</a>",
            "($root, $root)",
            "<a><e/>t</a><a><e/>t</a>",
            2,
        ),
        (
            "<lib><j><n>1</n><n>2</n></j><j><n>3</n></j><j/></lib>",
            "for $j in //j return <out>{ for $n in $j/n return $n }</out>",
            "<out><n>1</n><n>2</n></out><out><n>3</n></out><out/>",
            3,
        ),
    ];
    for &(doc, query, xml, items) in cases {
        let db = Database::in_memory();
        db.load_document("doc", doc).unwrap();
        let oracle = db.query("doc", query, EngineKind::M1InMemory).unwrap();
        assert_eq!(
            (oracle.to_xml().as_str(), oracle.len()),
            (xml, items),
            "{query}"
        );
        for engine in EngineKind::ALL {
            let got = db.query("doc", query, engine).unwrap();
            assert_eq!(got.to_xml(), oracle.to_xml(), "{query} on {engine}");
            assert_eq!(got.len(), oracle.len(), "{query} on {engine}");
        }
    }
}

/// Whole-document replacement is the supported update model.
#[test]
fn replace_document_updates_answers() {
    let db = Database::in_memory();
    db.load_document("doc", "<a><n>old</n></a>").unwrap();
    assert_eq!(
        db.query("doc", "//n", EngineKind::M4CostBased)
            .unwrap()
            .to_xml(),
        "<n>old</n>"
    );
    db.replace_document("doc", "<a><n>new</n><n>two</n></a>")
        .unwrap();
    for engine in EngineKind::ALL {
        assert_eq!(
            db.query("doc", "//n", engine).unwrap().to_xml(),
            "<n>new</n><n>two</n>",
            "{engine} sees stale data after replace"
        );
    }
    // Statistics were refreshed too.
    assert_eq!(db.store("doc").unwrap().stats().label_count("n"), 2);
}
