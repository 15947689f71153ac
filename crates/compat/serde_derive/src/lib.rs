//! Offline stand-in for `serde_derive`.
//!
//! The vendored [`serde`](../serde) facade models serialization as a
//! conversion to and from a JSON-like `serde::Value`. This crate derives
//! those conversions for the shapes the perfvar workspace actually uses:
//! structs with named fields, tuple structs, unit structs, and enums with
//! unit / tuple / struct variants (externally tagged, like real serde).
//! `Serialize` also gets a direct `write_json` body for every shape, so
//! derived types render straight into the facade's `JsonWriter` without
//! building a `Value` first; it may be derived on a type whose only
//! generic parameters are lifetimes (borrowing document views).
//! The only container/field attributes honoured are `#[serde(transparent)]`,
//! `#[serde(skip)]`, and `#[serde(default)]` / `#[serde(default = "path")]`
//! — the only ones the workspace uses. A defaulted field tolerates being
//! absent from the input object (older on-disk JSON stays readable after
//! a struct gains a field).
//!
//! The implementation deliberately avoids `syn`/`quote` (unavailable in
//! offline builds): it walks the raw `TokenStream` by hand and emits the
//! impl blocks as source text, which is then re-parsed into tokens.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};
use std::fmt::Write as _;

struct Field {
    name: String,
    skip: bool,
    /// `Some(None)` for `#[serde(default)]`, `Some(Some(path))` for
    /// `#[serde(default = "path")]`, `None` when the field is required.
    default: Option<Option<String>>,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum Body {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    /// Lifetime parameters with their angle brackets (`<'a>`), or empty.
    generics: String,
    transparent: bool,
    body: Body,
}

/// Derives `serde::Serialize` (the vendored facade trait).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let ast = parse_input(input);
    gen_serialize(&ast)
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derives `serde::Deserialize` (the vendored facade trait).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let ast = parse_input(input);
    assert!(
        ast.generics.is_empty(),
        "derive(Deserialize) on generic type `{}` is not supported by the offline serde facade",
        ast.name
    );
    gen_deserialize(&ast)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ───────────────────────────── parsing ─────────────────────────────

/// Returns the word list of a `#[serde(...)]` attribute group, or empty.
fn serde_attr_words(bracket: &Group) -> Vec<String> {
    let mut toks = bracket.stream().into_iter();
    match toks.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return Vec::new(),
    }
    match toks.next() {
        Some(TokenTree::Group(inner)) => inner
            .stream()
            .into_iter()
            .filter_map(|t| match t {
                TokenTree::Ident(id) => Some(id.to_string()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Extracts a `default` word from a `#[serde(...)]` group: `Some(None)`
/// for the bare word, `Some(Some(path))` for `default = "path"`.
fn serde_attr_default(bracket: &Group) -> Option<Option<String>> {
    let mut toks = bracket.stream().into_iter();
    match toks.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return None,
    }
    let inner: Vec<TokenTree> = match toks.next() {
        Some(TokenTree::Group(inner)) => inner.stream().into_iter().collect(),
        _ => return None,
    };
    let mut i = 0;
    while i < inner.len() {
        if matches!(&inner[i], TokenTree::Ident(id) if id.to_string() == "default") {
            if matches!(inner.get(i + 1), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
                if let Some(TokenTree::Literal(lit)) = inner.get(i + 2) {
                    let text = lit.to_string();
                    let path = text.trim_matches('"').to_string();
                    return Some(Some(path));
                }
            }
            return Some(None);
        }
        i += 1;
    }
    None
}

fn parse_input(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut transparent = false;
    let mut is_enum = false;
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                    if serde_attr_words(g).iter().any(|w| w == "transparent") {
                        transparent = true;
                    }
                }
                i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => {
                i += 1;
                break;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" => {
                is_enum = true;
                i += 1;
                break;
            }
            Some(_) => i += 1,
            None => panic!("derive input contains no struct or enum"),
        }
    }
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected type name after struct/enum, found {other:?}"),
    };
    i += 1;
    let mut generics = String::new();
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        generics.push('<');
        i += 1;
        loop {
            match (tokens.get(i), tokens.get(i + 1)) {
                (Some(TokenTree::Punct(p)), _) if p.as_char() == '>' => break,
                (Some(TokenTree::Punct(p)), _) if p.as_char() == ',' => generics.push_str(", "),
                (Some(TokenTree::Punct(p)), Some(TokenTree::Ident(id))) if p.as_char() == '\'' => {
                    let _ = write!(generics, "'{id}");
                    i += 1;
                }
                _ => panic!(
                    "derive on `{name}`: the offline serde facade supports lifetime \
                     parameters only"
                ),
            }
            i += 1;
        }
        generics.push('>');
        i += 1;
    }
    let body = if is_enum {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g))
            }
            other => panic!("expected enum body, found {other:?}"),
        }
    } else {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Struct(parse_named_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::Tuple(count_tuple_fields(g))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::Unit,
            other => panic!("expected struct body, found {other:?}"),
        }
    };
    Input {
        name,
        generics,
        transparent,
        body,
    }
}

fn parse_named_fields(g: &Group) -> Vec<Field> {
    let tokens: Vec<TokenTree> = g.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut skip = false;
        let mut default = None;
        while matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            if let Some(TokenTree::Group(ag)) = tokens.get(i + 1) {
                if serde_attr_words(ag).iter().any(|w| w == "skip") {
                    skip = true;
                }
                if let Some(d) = serde_attr_default(ag) {
                    default = Some(d);
                }
            }
            i += 2;
        }
        if matches!(tokens.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            i += 1;
            if matches!(
                tokens.get(i),
                Some(TokenTree::Group(pg)) if pg.delimiter() == Delimiter::Parenthesis
            ) {
                i += 1;
            }
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("expected field name, found {other:?}"),
        };
        i += 1;
        assert!(
            matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ':'),
            "expected `:` after field `{name}`"
        );
        i += 1;
        // Consume the type: everything up to the next comma that is not
        // inside `<...>` generic arguments (groups are single tokens).
        let mut angle_depth = 0i32;
        while let Some(tok) = tokens.get(i) {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field {
            name,
            skip,
            default,
        });
    }
    fields
}

fn count_tuple_fields(g: &Group) -> usize {
    let mut angle_depth = 0i32;
    let mut count = 0;
    let mut segment_has_tokens = false;
    for tok in g.stream() {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                angle_depth += 1;
                segment_has_tokens = true;
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth -= 1;
                segment_has_tokens = true;
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                if segment_has_tokens {
                    count += 1;
                }
                segment_has_tokens = false;
            }
            _ => segment_has_tokens = true,
        }
    }
    if segment_has_tokens {
        count += 1;
    }
    count
}

fn parse_variants(g: &Group) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = g.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 2;
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("expected variant name, found {other:?}"),
        };
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(vg)) if vg.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(count_tuple_fields(vg))
            }
            Some(TokenTree::Group(vg)) if vg.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_named_fields(vg))
            }
            _ => VariantKind::Unit,
        };
        // Skip an optional discriminant, then the separating comma.
        while i < tokens.len()
            && !matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',')
        {
            i += 1;
        }
        i += 1;
        variants.push(Variant { name, kind });
    }
    variants
}

// ───────────────────────────── codegen ─────────────────────────────

fn transparent_field(ast: &Input) -> &str {
    match &ast.body {
        Body::Struct(fields) => {
            let live: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
            assert!(
                live.len() == 1,
                "#[serde(transparent)] on `{}` requires exactly one non-skipped field",
                ast.name
            );
            &live[0].name
        }
        Body::Tuple(1) => "0",
        _ => panic!(
            "#[serde(transparent)] on `{}` is unsupported for this shape",
            ast.name
        ),
    }
}

fn gen_serialize(ast: &Input) -> String {
    let name = &ast.name;
    let generics = &ast.generics;
    let mut out = format!(
        "#[automatically_derived]\nimpl{generics} serde::Serialize for {name}{generics} {{\n\
         fn to_value(&self) -> serde::Value {{ "
    );
    if ast.transparent {
        let f = transparent_field(ast);
        let _ = write!(out, "serde::Serialize::to_value(&self.{f})");
    } else {
        match &ast.body {
            Body::Unit => out.push_str("serde::Value::Null"),
            Body::Tuple(1) => out.push_str("serde::Serialize::to_value(&self.0)"),
            Body::Tuple(n) => {
                out.push_str("serde::Value::Array(vec![");
                for idx in 0..*n {
                    let _ = write!(out, "serde::Serialize::to_value(&self.{idx}),");
                }
                out.push_str("])");
            }
            Body::Struct(fields) => {
                out.push_str("let mut __o: Vec<(String, serde::Value)> = Vec::new(); ");
                for f in fields.iter().filter(|f| !f.skip) {
                    let fname = &f.name;
                    let _ = write!(
                        out,
                        "__o.push((String::from(\"{fname}\"), \
                         serde::Serialize::to_value(&self.{fname}))); "
                    );
                }
                out.push_str("serde::Value::Object(__o)");
            }
            Body::Enum(variants) => {
                out.push_str("match self { ");
                for v in variants {
                    let vname = &v.name;
                    match &v.kind {
                        VariantKind::Unit => {
                            let _ = write!(
                                out,
                                "{name}::{vname} => \
                                 serde::Value::String(String::from(\"{vname}\")), "
                            );
                        }
                        VariantKind::Tuple(1) => {
                            let _ = write!(
                                out,
                                "{name}::{vname}(__a0) => serde::Value::Object(vec![\
                                 (String::from(\"{vname}\"), \
                                 serde::Serialize::to_value(__a0))]), "
                            );
                        }
                        VariantKind::Tuple(n) => {
                            let binders: Vec<String> = (0..*n).map(|i| format!("__a{i}")).collect();
                            let _ = write!(
                                out,
                                "{name}::{vname}({}) => serde::Value::Object(vec![\
                                 (String::from(\"{vname}\"), serde::Value::Array(vec![",
                                binders.join(", ")
                            );
                            for b in &binders {
                                let _ = write!(out, "serde::Serialize::to_value({b}),");
                            }
                            out.push_str("]))]), ");
                        }
                        VariantKind::Struct(fields) => {
                            let live: Vec<&str> = fields
                                .iter()
                                .filter(|f| !f.skip)
                                .map(|f| f.name.as_str())
                                .collect();
                            let _ = write!(
                                out,
                                "{name}::{vname} {{ {}.. }} => {{\n\
                                 let mut __o: Vec<(String, serde::Value)> = Vec::new(); ",
                                live.iter().map(|f| format!("{f}, ")).collect::<String>()
                            );
                            for f in &live {
                                let _ = write!(
                                    out,
                                    "__o.push((String::from(\"{f}\"), \
                                     serde::Serialize::to_value({f}))); "
                                );
                            }
                            let _ = write!(
                                out,
                                "serde::Value::Object(vec![(String::from(\"{vname}\"), \
                                 serde::Value::Object(__o))])\n}} "
                            );
                        }
                    }
                }
                out.push_str("} ");
            }
        }
    }
    out.push_str("}\n");
    out.push_str(&gen_write_json(ast));
    out.push_str("} ");
    out
}

/// `__w.key("name"); <write expr>;` for each live field of a struct
/// body, wrapped in an object; `access` maps a field name to the
/// expression that borrows it.
fn write_fields(out: &mut String, fields: &[Field], access: impl Fn(&str) -> String) {
    out.push_str("__w.begin_object(); ");
    for f in fields.iter().filter(|f| !f.skip) {
        let _ = write!(
            out,
            "__w.key(\"{}\"); serde::Serialize::write_json({}, __w); ",
            f.name,
            access(&f.name)
        );
    }
    out.push_str("__w.end_object(); ");
}

/// `__w.array_value(); <write expr>;` for each element, wrapped in an
/// array.
fn write_elements(out: &mut String, elements: &[String]) {
    out.push_str("__w.begin_array(); ");
    for e in elements {
        let _ = write!(
            out,
            "__w.array_value(); serde::Serialize::write_json({e}, __w); "
        );
    }
    out.push_str("__w.end_array(); ");
}

/// The direct `write_json` method: the same document `to_value` builds,
/// written straight into the writer.
fn gen_write_json(ast: &Input) -> String {
    let name = &ast.name;
    let mut out = String::from("fn write_json(&self, __w: &mut serde::JsonWriter<'_>) { ");
    if ast.transparent {
        let f = transparent_field(ast);
        let _ = write!(out, "serde::Serialize::write_json(&self.{f}, __w); ");
    } else {
        match &ast.body {
            Body::Unit => out.push_str("__w.null(); "),
            Body::Tuple(1) => out.push_str("serde::Serialize::write_json(&self.0, __w); "),
            Body::Tuple(n) => {
                let elements: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
                write_elements(&mut out, &elements);
            }
            Body::Struct(fields) => write_fields(&mut out, fields, |f| format!("&self.{f}")),
            Body::Enum(variants) => {
                out.push_str("match self { ");
                for v in variants {
                    let vname = &v.name;
                    match &v.kind {
                        VariantKind::Unit => {
                            let _ = write!(out, "{name}::{vname} => __w.str(\"{vname}\"), ");
                        }
                        VariantKind::Tuple(n) => {
                            let binders: Vec<String> = (0..*n).map(|i| format!("__a{i}")).collect();
                            let _ = write!(
                                out,
                                "{name}::{vname}({}) => {{ __w.begin_object(); \
                                 __w.key(\"{vname}\"); ",
                                binders.join(", ")
                            );
                            if *n == 1 {
                                out.push_str("serde::Serialize::write_json(__a0, __w); ");
                            } else {
                                write_elements(&mut out, &binders);
                            }
                            out.push_str("__w.end_object(); } ");
                        }
                        VariantKind::Struct(fields) => {
                            let live: String = fields
                                .iter()
                                .filter(|f| !f.skip)
                                .map(|f| format!("{}, ", f.name))
                                .collect();
                            let _ = write!(
                                out,
                                "{name}::{vname} {{ {live}.. }} => {{ __w.begin_object(); \
                                 __w.key(\"{vname}\"); "
                            );
                            write_fields(&mut out, fields, str::to_string);
                            out.push_str("__w.end_object(); } ");
                        }
                    }
                }
                out.push_str("} ");
            }
        }
    }
    out.push_str("}\n");
    out
}

/// The `name: value,` initialiser for one named field of a deserialize
/// impl, reading from the object expression `src`.
fn deser_field_expr(f: &Field, src: &str) -> String {
    let fname = &f.name;
    if f.skip {
        return format!("{fname}: Default::default(), ");
    }
    match &f.default {
        None => format!("{fname}: serde::__private::field({src}, \"{fname}\")?, "),
        Some(None) => {
            format!("{fname}: serde::__private::field_or({src}, \"{fname}\", Default::default)?, ")
        }
        Some(Some(path)) => {
            format!("{fname}: serde::__private::field_or({src}, \"{fname}\", {path})?, ")
        }
    }
}

fn gen_deserialize(ast: &Input) -> String {
    let name = &ast.name;
    let mut out = format!(
        "#[automatically_derived]\nimpl serde::Deserialize for {name} {{\n\
         fn from_value(__v: &serde::Value) -> Result<Self, serde::Error> {{ "
    );
    if ast.transparent {
        match &ast.body {
            Body::Tuple(1) => {
                out.push_str("Ok(Self(serde::Deserialize::from_value(__v)?))");
            }
            Body::Struct(fields) => {
                out.push_str("Ok(Self { ");
                for f in fields {
                    let fname = &f.name;
                    if f.skip {
                        let _ = write!(out, "{fname}: Default::default(), ");
                    } else {
                        let _ = write!(out, "{fname}: serde::Deserialize::from_value(__v)?, ");
                    }
                }
                out.push_str("})");
            }
            _ => panic!("#[serde(transparent)] on `{name}` is unsupported for this shape"),
        }
    } else {
        match &ast.body {
            Body::Unit => out.push_str("Ok(Self)"),
            Body::Tuple(1) => {
                out.push_str("Ok(Self(serde::Deserialize::from_value(__v)?))");
            }
            Body::Tuple(n) => {
                let _ = write!(
                    out,
                    "match __v {{\nserde::Value::Array(__items) if __items.len() == {n} => \
                     Ok(Self("
                );
                for idx in 0..*n {
                    let _ = write!(out, "serde::Deserialize::from_value(&__items[{idx}])?,");
                }
                let _ = write!(
                    out,
                    ")),\n_ => Err(serde::Error::custom(\
                     \"expected array of {n} elements for {name}\")),\n}}"
                );
            }
            Body::Struct(fields) => {
                out.push_str("Ok(Self { ");
                for f in fields {
                    out.push_str(&deser_field_expr(f, "__v"));
                }
                out.push_str("})");
            }
            Body::Enum(variants) => {
                out.push_str("match __v {\nserde::Value::String(__s) => match __s.as_str() { ");
                for v in variants {
                    if matches!(v.kind, VariantKind::Unit) {
                        let vname = &v.name;
                        let _ = write!(out, "\"{vname}\" => Ok({name}::{vname}), ");
                    }
                }
                let _ = write!(
                    out,
                    "__other => Err(serde::Error::custom(format!(\
                     \"unknown variant `{{}}` of {name}\", __other))),\n}}, "
                );
                out.push_str(
                    "serde::Value::Object(__m) if __m.len() == 1 => {\n\
                     let (__k, __val) = &__m[0];\nmatch __k.as_str() { ",
                );
                for v in variants {
                    let vname = &v.name;
                    match &v.kind {
                        VariantKind::Unit => {}
                        VariantKind::Tuple(1) => {
                            let _ = write!(
                                out,
                                "\"{vname}\" => Ok({name}::{vname}(\
                                 serde::Deserialize::from_value(__val)?)), "
                            );
                        }
                        VariantKind::Tuple(n) => {
                            let _ = write!(
                                out,
                                "\"{vname}\" => match __val {{\n\
                                 serde::Value::Array(__items) if __items.len() == {n} => \
                                 Ok({name}::{vname}("
                            );
                            for idx in 0..*n {
                                let _ = write!(
                                    out,
                                    "serde::Deserialize::from_value(&__items[{idx}])?,"
                                );
                            }
                            let _ = write!(
                                out,
                                ")),\n_ => Err(serde::Error::custom(\
                                 \"expected array of {n} elements for {name}::{vname}\")),\n\
                                 }}, "
                            );
                        }
                        VariantKind::Struct(fields) => {
                            let _ = write!(out, "\"{vname}\" => Ok({name}::{vname} {{ ");
                            for f in fields {
                                out.push_str(&deser_field_expr(f, "__val"));
                            }
                            out.push_str("}), ");
                        }
                    }
                }
                let _ = write!(
                    out,
                    "__other => {{ let _ = __val; Err(serde::Error::custom(format!(\
                     \"unknown variant `{{}}` of {name}\", __other))) }}\n}}\n}}, "
                );
                let _ = write!(
                    out,
                    "_ => Err(serde::Error::custom(\"invalid value for enum {name}\")),\n}}"
                );
            }
        }
    }
    out.push_str("}\n} ");
    out
}
