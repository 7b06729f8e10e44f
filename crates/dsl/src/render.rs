//! Pretty-printer from the AST back to DSL source.
//!
//! The inverse of [`crate::parse`] up to formatting: rendering a parsed
//! [`Spec`] and reparsing the result yields the same AST (and therefore
//! the same lowered SSP). Statements are emitted in the canonical order
//! every bundled source already uses — body, final-state arrow, await
//! blocks — so the round trip is exact for any spec the parser produced
//! from canonically-ordered source. The property tests drive every
//! bundled `.pgen` through parse → render → reparse → lower.
//!
//! Keywords in the grammar are *contextual*: every name position (state,
//! message, trigger, compose label, protocol reference) is a bare
//! identifier the parser never dispatches on, so names that collide with
//! keywords — including the `compose` block header — need no escaping to
//! round-trip. A test below pins that for the worst offenders.

use crate::ast::*;
use std::fmt::Write;

/// Renders a parsed spec back to parseable DSL source.
pub fn render(spec: &Spec) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "protocol {};", spec.name);
    let _ = writeln!(s, "network {};", if spec.ordered { "ordered" } else { "unordered" });
    let _ = writeln!(s, "consistency {};", spec.consistency);
    let _ = writeln!(s, "si {};", if spec.si_epoch { "epoch" } else { "line" });
    if !spec.compose.is_empty() {
        s.push('\n');
        s.push_str("compose {\n");
        for l in &spec.compose {
            let _ = write!(s, "    {}: {}", l.label, l.protocol);
            if let Some(f) = l.fanout {
                let _ = write!(s, "({f})");
            }
            s.push_str(";\n");
        }
        s.push_str("}\n");
    }
    s.push('\n');
    for m in &spec.messages {
        let _ = write!(s, "message {} : {}", m.name, m.class);
        if !m.fields.is_empty() {
            let _ = write!(s, " {{ {} }}", m.fields.join(", "));
        }
        if let Some(v) = &m.vnet {
            let _ = write!(s, " on {v}");
        }
        s.push_str(";\n");
    }
    s.push('\n');
    render_states(&mut s, "cache", &spec.cache_states);
    s.push('\n');
    render_states(&mut s, "directory", &spec.dir_states);
    s.push('\n');
    render_arch(&mut s, "cache", &spec.cache_procs);
    s.push('\n');
    render_arch(&mut s, "directory", &spec.dir_procs);
    s
}

fn render_states(s: &mut String, which: &str, states: &[StateDecl]) {
    let _ = writeln!(s, "{which} {{");
    for st in states {
        let _ = write!(s, "    state {}", st.name);
        if st.perm != "none" {
            let _ = write!(s, " {}", st.perm);
        }
        if st.data {
            s.push_str(" data");
        }
        s.push_str(";\n");
    }
    s.push_str("}\n");
}

fn render_guards(s: &mut String, guards: &[String]) {
    if !guards.is_empty() {
        let _ = write!(s, " if {}", guards.join(" && "));
    }
}

fn render_stmt(s: &mut String, indent: &str, stmt: &Stmt) {
    match stmt {
        Stmt::Send { msg, args, dst } => {
            let _ = write!(s, "{indent}send {msg}");
            if !args.is_empty() {
                let _ = write!(s, "({})", args.join(", "));
            }
            let _ = writeln!(s, " to {dst};");
        }
        Stmt::Word(w) => {
            let _ = writeln!(s, "{indent}{w};");
        }
    }
}

fn render_arch(s: &mut String, which: &str, procs: &[Process]) {
    let _ = writeln!(s, "architecture {which} {{");
    for p in procs {
        let _ = write!(s, "    process({}, {})", p.state, p.trigger);
        render_guards(s, &p.guards);
        s.push_str(" {\n");
        for stmt in &p.body {
            render_stmt(s, "        ", stmt);
        }
        if let Some(next) = &p.next {
            let _ = writeln!(s, "        -> {next};");
        }
        for a in &p.awaits {
            let _ = writeln!(s, "        await {} {{", a.tag);
            for w in &a.whens {
                let _ = write!(s, "            when {}", w.msg);
                render_guards(s, &w.guards);
                s.push(':');
                s.push('\n');
                for stmt in &w.stmts {
                    render_stmt(s, "                ", stmt);
                }
                match &w.target {
                    WhenTarget::Done(st) => {
                        let _ = writeln!(s, "                -> {st};");
                    }
                    WhenTarget::Wait(tag) => {
                        let _ = writeln!(s, "                => {tag};");
                    }
                }
            }
            s.push_str("        }\n");
        }
        s.push_str("    }\n");
    }
    s.push_str("}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn every_bundled_source_round_trips_through_render() {
        for (name, src) in [
            ("MSI", crate::MSI_PGEN),
            ("MESI", crate::MESI_PGEN),
            ("MOSI", crate::MOSI_PGEN),
            ("MSI-Upgrade", crate::MSI_UPGRADE_PGEN),
            ("MSI-unordered", crate::MSI_UNORDERED_PGEN),
            ("TSO-CC", crate::TSO_CC_PGEN),
            ("SI-SD", crate::SI_SD_PGEN),
        ] {
            let ast = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let rendered = render(&ast);
            let again =
                parse(&rendered).unwrap_or_else(|e| panic!("{name} rendered: {e}\n{rendered}"));
            assert_eq!(ast, again, "{name}: render/reparse changed the AST");
        }
    }

    #[test]
    fn rendering_is_idempotent() {
        let ast = parse(crate::SI_SD_PGEN).unwrap();
        let once = render(&ast);
        let twice = render(&parse(&once).unwrap());
        assert_eq!(once, twice);
    }

    /// A spec with a `compose` block — placed at the *end* of the source,
    /// away from the renderer's canonical position — round-trips exactly,
    /// and rendering it is idempotent.
    #[test]
    fn compose_blocks_round_trip_through_render() {
        let src = r#"
            protocol Stack;
            network unordered;
            message Get : request;
            message Data : response { data };
            cache { state I; state V read; }
            directory { state I; state V; }
            architecture cache {
                process(I, load) {
                    send Get to dir;
                    await D { when Data: copy_data; perform; -> V; }
                }
            }
            architecture directory {
                process(I, Get) { send Data(data) to req; -> V; }
            }
            compose { l1: msi(2); llc: mesi; }
        "#;
        let ast = parse(src).unwrap();
        assert_eq!(ast.compose.len(), 2);
        let rendered = render(&ast);
        let again = parse(&rendered).unwrap_or_else(|e| panic!("{e}\n{rendered}"));
        assert_eq!(ast, again, "render/reparse changed the AST");
        assert_eq!(rendered, render(&again), "rendering not idempotent");
    }

    /// Names colliding with keywords — old and new (`compose`) — survive
    /// the round trip without escaping, because every name position in
    /// the grammar is contextual.
    #[test]
    fn keyword_colliding_names_round_trip() {
        let src = r#"
            protocol compose;
            message compose : request;
            message state : response { data };
            cache { state compose readwrite; state state; }
            directory { state process; }
            architecture cache {
                process(compose, load) { perform; }
                process(state, compose) { perform; -> compose; }
            }
            architecture directory { }
            compose { compose: compose(2); state: state; }
        "#;
        let ast = parse(src).unwrap();
        let rendered = render(&ast);
        let again = parse(&rendered).unwrap_or_else(|e| panic!("{e}\n{rendered}"));
        assert_eq!(ast, again, "keyword-colliding names changed across render/reparse");
    }
}
