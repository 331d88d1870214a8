//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the offline serde
//! stand-in.
//!
//! Implemented directly over `proc_macro::TokenStream` (no `syn`/`quote`
//! available offline): a small item parser extracts the type's shape — named
//! structs, newtype/tuple structs, and enums with unit / tuple / struct
//! variants, with each field's name and type — and the impls are generated
//! as source text.  Each derive emits both paths of its trait: the
//! `serde::Value` tree (`to_value` / `from_value`) and the one-pass JSON
//! (`write_json` / `read_json`), which writes the same bytes and accepts the
//! same documents without building a tree.  Generics are not supported
//! (nothing in this workspace derives serde on a generic type).
//!
//! One field attribute is understood:
//! `#[serde(skip_serializing_if = "path")]` leaves the field out of the
//! serialized map when `path(&field)` is true; on the way back in, an
//! absent key reads as `null`, like any other missing field.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

/// Derive `serde::Serialize` for a struct or enum.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().unwrap()
}

/// Derive `serde::Deserialize` for a struct or enum.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item).parse().unwrap()
}

enum Shape {
    /// `struct S;`
    UnitStruct,
    /// `struct S { a: A, b: B }`
    NamedStruct(Vec<Field>),
    /// `struct S(A, B);` — the field types, in order.
    TupleStruct(Vec<String>),
    /// `enum E { ... }`
    Enum(Vec<Variant>),
}

/// One named field.
struct Field {
    name: String,
    /// The field's type, as source text.
    ty: String,
    /// The predicate of `#[serde(skip_serializing_if = "...")]`.
    skip_if: Option<String>,
}

struct Variant {
    name: String,
    fields: VariantFields,
}

enum VariantFields {
    Unit,
    /// Field types, in order.
    Tuple(Vec<String>),
    Named(Vec<Field>),
}

struct Item {
    name: String,
    shape: Shape,
}

type TokenIter = Peekable<proc_macro::token_stream::IntoIter>;

fn parse_item(input: TokenStream) -> Item {
    let mut it = input.into_iter().peekable();
    // Skip outer attributes and visibility.
    let keyword = loop {
        match it.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => skip_attribute(&mut it),
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "pub" {
                    if let Some(TokenTree::Group(g)) = it.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            it.next(); // pub(crate) etc.
                        }
                    }
                } else if s == "struct" || s == "enum" {
                    break s;
                }
            }
            Some(_) => {}
            None => panic!("serde derive: no struct or enum found"),
        }
    };
    let name = match it.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde derive: expected type name, got {other:?}"),
    };
    skip_generics(&mut it);
    let shape = if keyword == "struct" {
        match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(parse_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct,
            other => panic!("serde derive: unexpected struct body {other:?}"),
        }
    } else {
        match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde derive: unexpected enum body {other:?}"),
        }
    };
    Item { name, shape }
}

/// Skip `<...>` generics after a type name (balanced on angle depth).
fn skip_generics(it: &mut TokenIter) {
    if let Some(TokenTree::Punct(p)) = it.peek() {
        if p.as_char() != '<' {
            return;
        }
    } else {
        return;
    }
    let mut depth = 0i32;
    for tok in it.by_ref() {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                _ => {}
            }
        }
    }
}

/// Parse `a: A, b: B, ...` fields from a brace-group stream.
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut it = stream.into_iter().peekable();
    loop {
        // Read attributes and skip visibility before the field name.
        let mut skip_if = None;
        let name = loop {
            match it.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    if let Some(TokenTree::Group(g)) = it.next() {
                        if let Some(path) = serde_attribute(g.stream()) {
                            skip_if = Some(path);
                        }
                    }
                }
                Some(TokenTree::Ident(id)) => {
                    let s = id.to_string();
                    if s == "pub" {
                        if let Some(TokenTree::Group(g)) = it.peek() {
                            if g.delimiter() == Delimiter::Parenthesis {
                                it.next();
                            }
                        }
                    } else {
                        break Some(s);
                    }
                }
                Some(other) => panic!("serde derive: unexpected token in fields: {other:?}"),
                None => break None,
            }
        };
        let Some(name) = name else { break };
        match it.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde derive: expected `:` after field `{name}`, got {other:?}"),
        }
        let ty = take_type(&mut it);
        fields.push(Field { name, ty, skip_if });
    }
    fields
}

/// The predicate of a `serde(skip_serializing_if = "path")` attribute body,
/// `None` for any attribute that is not `serde(...)` (doc comments and
/// the like).  Any other `serde` attribute is refused, so a spelling this
/// stand-in does not implement cannot be silently ignored.
fn serde_attribute(attr: TokenStream) -> Option<String> {
    let mut it = attr.into_iter();
    match it.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return None,
    }
    let args: Vec<TokenTree> = match it.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            g.stream().into_iter().collect()
        }
        other => panic!("serde derive: expected `serde(...)`, got {other:?}"),
    };
    match args.as_slice() {
        [TokenTree::Ident(key), TokenTree::Punct(eq), TokenTree::Literal(path)]
            if key.to_string() == "skip_serializing_if" && eq.as_char() == '=' =>
        {
            let path = path.to_string();
            let path = path
                .strip_prefix('"')
                .and_then(|p| p.strip_suffix('"'))
                .unwrap_or_else(|| panic!("serde derive: expected a string path, got {path}"));
            Some(path.to_string())
        }
        _ => panic!("serde derive: only `#[serde(skip_serializing_if = \"path\")]` is supported"),
    }
}

/// Skip the `[...]` of an attribute on a type or variant, where no `serde`
/// attribute is understood.
fn skip_attribute(it: &mut TokenIter) {
    if let Some(TokenTree::Group(g)) = it.next() {
        if serde_attribute(g.stream()).is_some() {
            panic!("serde derive: `skip_serializing_if` applies to named fields only");
        }
    }
}

/// Consume a type up to (and including) the next top-level `,`, returning
/// its source text.
fn take_type(it: &mut TokenIter) -> String {
    let mut ty = TokenStream::new();
    let mut angle_depth = 0i32;
    for tok in it.by_ref() {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => break,
                _ => {}
            }
        }
        ty.extend([tok]);
    }
    ty.to_string()
}

/// The field types of a paren-group (tuple struct / tuple variant) stream.
fn parse_tuple_fields(stream: TokenStream) -> Vec<String> {
    let mut types = Vec::new();
    let mut it = stream.into_iter().peekable();
    while it.peek().is_some() {
        types.push(take_type(&mut it));
    }
    types
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut it = stream.into_iter().peekable();
    loop {
        // Skip attributes before the variant name.
        let name = loop {
            match it.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => skip_attribute(&mut it),
                Some(TokenTree::Ident(id)) => break Some(id.to_string()),
                Some(other) => panic!("serde derive: unexpected token in variants: {other:?}"),
                None => break None,
            }
        };
        let Some(name) = name else { break };
        let fields = match it.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let types = parse_tuple_fields(g.stream());
                it.next();
                VariantFields::Tuple(types)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = parse_named_fields(g.stream());
                it.next();
                VariantFields::Named(f)
            }
            _ => VariantFields::Unit,
        };
        // Skip an optional `= discriminant` and the separating comma.
        take_type(&mut it);
        variants.push(Variant { name, fields });
    }
    variants
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

/// `(name, to_value)` entries of a named-field map, `get(field)` being the
/// expression that borrows a field; a skipped field is pushed only when its
/// predicate is false.
fn map_to_value(fields: &[Field], get: impl Fn(&str) -> String) -> String {
    let mut body = format!(
        "let mut m = ::std::vec::Vec::with_capacity({});\n",
        fields.len()
    );
    for f in fields {
        let (name, value) = (&f.name, get(&f.name));
        let push =
            format!("m.push(({name:?}.to_string(), ::serde::Serialize::to_value({value})));\n");
        match &f.skip_if {
            Some(path) => body += &format!("if !{path}({value}) {{ {push} }}\n"),
            None => body += &push,
        }
    }
    format!("{{ {body} ::serde::Value::Map(m) }}")
}

/// Statements writing a named-field map through `w`, like [`map_to_value`].
fn map_write(fields: &[Field], get: impl Fn(&str) -> String) -> String {
    let mut body = String::from("w.begin_map();\n");
    for f in fields {
        let (name, value) = (&f.name, get(&f.name));
        let field = format!("w.field({name:?}, {value});\n");
        match &f.skip_if {
            Some(path) => body += &format!("if !{path}({value}) {{ {field} }}\n"),
            None => body += &field,
        }
    }
    body + "w.end_map();\n"
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let (tree, json) = match &item.shape {
        Shape::UnitStruct => ("::serde::Value::Null".to_string(), "w.null();".to_string()),
        Shape::NamedStruct(fields) => (
            map_to_value(fields, |f| format!("&self.{f}")),
            map_write(fields, |f| format!("&self.{f}")),
        ),
        Shape::TupleStruct(types) if types.len() == 1 => (
            "::serde::Serialize::to_value(&self.0)".to_string(),
            "::serde::Serialize::write_json(&self.0, w);".to_string(),
        ),
        Shape::TupleStruct(types) => {
            let items: Vec<String> = (0..types.len())
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            let elements: String = (0..types.len())
                .map(|i| format!("w.element(&self.{i});\n"))
                .collect();
            (
                format!("::serde::Value::Seq(vec![{}])", items.join(", ")),
                format!("w.begin_seq();\n{elements}w.end_seq();"),
            )
        }
        Shape::Enum(variants) => {
            let mut tree_arms = String::new();
            let mut json_arms = String::new();
            for v in variants {
                let vname = &v.name;
                let tag = format!("({vname:?}.to_string(), ");
                match &v.fields {
                    VariantFields::Unit => {
                        tree_arms += &format!(
                            "{name}::{vname} => ::serde::Value::Str({vname:?}.to_string()),\n"
                        );
                        json_arms += &format!("{name}::{vname} => w.str({vname:?}),\n");
                    }
                    VariantFields::Tuple(types) if types.len() == 1 => {
                        tree_arms += &format!(
                            "{name}::{vname}(f0) => ::serde::Value::Map(vec![{tag}::serde::Serialize::to_value(f0))]),\n"
                        );
                        json_arms += &format!(
                            "{name}::{vname}(f0) => {{ w.begin_map(); w.field({vname:?}, f0); w.end_map(); }}\n"
                        );
                    }
                    VariantFields::Tuple(types) => {
                        let binds: Vec<String> =
                            (0..types.len()).map(|i| format!("f{i}")).collect();
                        let items: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        let elements: String =
                            binds.iter().map(|b| format!("w.element({b});\n")).collect();
                        let binds = binds.join(", ");
                        tree_arms += &format!(
                            "{name}::{vname}({binds}) => ::serde::Value::Map(vec![{tag}::serde::Value::Seq(vec![{}]))]),\n",
                            items.join(", ")
                        );
                        json_arms += &format!(
                            "{name}::{vname}({binds}) => {{\n\
                                 w.begin_map();\n\
                                 w.key({vname:?});\n\
                                 w.begin_seq();\n\
                                 {elements}\
                                 w.end_seq();\n\
                                 w.end_map();\n\
                             }}\n"
                        );
                    }
                    VariantFields::Named(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let binds = binds.join(", ");
                        tree_arms += &format!(
                            "{name}::{vname} {{ {binds} }} => ::serde::Value::Map(vec![{tag}{})]),\n",
                            map_to_value(fields, str::to_string)
                        );
                        json_arms += &format!(
                            "{name}::{vname} {{ {binds} }} => {{\n\
                                 w.begin_map();\n\
                                 w.key({vname:?});\n\
                                 {}\
                                 w.end_map();\n\
                             }}\n",
                            map_write(fields, str::to_string)
                        );
                    }
                }
            }
            (
                format!("match self {{ {tree_arms} }}"),
                format!("match self {{ {json_arms} }}"),
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {tree} }}\n\
             fn write_json(&self, w: &mut ::serde::json::Writer) {{ {json} }}\n\
         }}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let (tree, json) = match &item.shape {
        Shape::UnitStruct => (
            format!("{{ let _ = v; Ok({name}) }}"),
            format!("r.skip()?; Ok({name})"),
        ),
        Shape::NamedStruct(fields) => (
            map_from_value(fields, &format!("struct {name}"), name),
            map_read(fields, &format!("struct {name}"), name),
        ),
        Shape::TupleStruct(types) if types.len() == 1 => (
            format!("Ok({name}(::serde::Deserialize::from_value(v)?))"),
            format!("Ok({name}(::serde::Deserialize::read_json(r)?))"),
        ),
        Shape::TupleStruct(types) => (
            seq_from_value(types.len(), &format!("struct {name}"), name),
            seq_read(types, &format!("struct {name}"), name),
        ),
        Shape::Enum(variants) => {
            let unknown = format!(
                "Err(::serde::Error::custom(format!(\"unknown variant `{{other}}` of {name}\")))"
            );
            let mut unit_arms = String::new();
            let mut tree_arms = String::new();
            let mut json_arms = String::new();
            for v in variants {
                let vname = &v.name;
                let path = format!("{name}::{vname}");
                let what = format!("variant {vname}");
                match &v.fields {
                    VariantFields::Unit => unit_arms += &format!("{vname:?} => Ok({path}),\n"),
                    VariantFields::Tuple(types) if types.len() == 1 => {
                        tree_arms += &format!(
                            "{vname:?} => Ok({path}(::serde::Deserialize::from_value(inner)?)),\n"
                        );
                        json_arms += &format!(
                            "{vname:?} => Ok({path}(::serde::Deserialize::read_json(r)?)),\n"
                        );
                    }
                    VariantFields::Tuple(types) => {
                        tree_arms += &format!(
                            "{vname:?} => {{ let v = inner; {} }}\n",
                            seq_from_value(types.len(), &what, &path)
                        );
                        json_arms +=
                            &format!("{vname:?} => {{ {} }}\n", seq_read(types, &what, &path));
                    }
                    VariantFields::Named(fields) => {
                        tree_arms += &format!(
                            "{vname:?} => {{ let v = inner; {} }}\n",
                            map_from_value(fields, &what, &path)
                        );
                        json_arms +=
                            &format!("{vname:?} => {{ {} }}\n", map_read(fields, &what, &path));
                    }
                }
            }
            let what = format!("string or single-key map for enum {name}");
            let unit = if unit_arms.is_empty() {
                format!("|other: &str| {unknown}")
            } else {
                format!("|tag: &str| match tag {{ {unit_arms} other => {unknown}, }}")
            };
            let data = if json_arms.is_empty() {
                format!("|_, other: &str| {unknown}")
            } else {
                format!("|r, tag: &str| match tag {{ {json_arms} other => {unknown}, }}")
            };
            (
                format!(
                    "match v {{\n\
                         ::serde::Value::Str(s) => match s.as_str() {{\n\
                             {unit_arms}\n\
                             other => {unknown},\n\
                         }},\n\
                         ::serde::Value::Map(m) if m.len() == 1 => {{\n\
                             let (tag, inner) = (&m[0].0, &m[0].1);\n\
                             let _ = inner;\n\
                             match tag.as_str() {{\n\
                                 {tree_arms}\n\
                                 other => {unknown},\n\
                             }}\n\
                         }}\n\
                         _ => Err(::serde::Error::custom(\"expected {what}\")),\n\
                     }}"
                ),
                format!("r.variant({what:?}, {unit}, {data})"),
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{ {tree} }}\n\
             fn read_json(r: &mut ::serde::json::Reader<'_>) -> ::std::result::Result<Self, ::serde::Error> {{ {json} }}\n\
         }}"
    )
}

/// Build `ctor { .. }` from the map `v` (`what` names the shape in the
/// error when `v` is not a map).
fn map_from_value(fields: &[Field], what: &str, ctor: &str) -> String {
    let inits: Vec<String> = fields
        .iter()
        .map(|f| format!("{0}: ::serde::de_field(m, {0:?})?", f.name))
        .collect();
    format!(
        "let m = v.as_map().ok_or_else(|| ::serde::Error::custom(\"expected map for {what}\"))?;\n\
         Ok({ctor} {{ {} }})",
        inits.join(", ")
    )
}

/// Read `ctor { .. }` from the next object in one pass: the first
/// occurrence of each field's key is read as the field's type, later
/// duplicates and unknown keys are skipped, and absent keys read as `null`
/// once the object ends — what [`map_from_value`] does over a parsed tree.
fn map_read(fields: &[Field], what: &str, ctor: &str) -> String {
    let what = format!("map for {what}");
    if fields.is_empty() {
        return format!("r.map({what:?}, |r, _| r.skip())?; Ok({ctor} {{}})");
    }
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = Vec::new();
    for Field { name, ty, .. } in fields {
        slots += &format!("let mut f_{name}: ::std::option::Option<{ty}> = None;\n");
        arms += &format!(
            "{name:?} if f_{name}.is_none() => f_{name} = Some(::serde::read_field(r, {name:?})?),\n"
        );
        inits.push(format!("{name}: ::serde::take_field(f_{name}, {name:?})?"));
    }
    format!(
        "{slots}\
         r.map({what:?}, |r, key| {{\n\
             match &*key {{\n\
                 {arms}\
                 _ => r.skip()?,\n\
             }}\n\
             Ok(())\n\
         }})?;\n\
         Ok({ctor} {{ {} }})",
        inits.join(", ")
    )
}

/// Build `ctor(..)` from the first `len` elements of the sequence `v`.
fn seq_from_value(len: usize, what: &str, ctor: &str) -> String {
    let inits: Vec<String> = (0..len)
        .map(|i| format!("::serde::de_index(s, {i})?"))
        .collect();
    format!(
        "let s = v.as_seq().ok_or_else(|| ::serde::Error::custom(\"expected sequence for {what}\"))?;\n\
         Ok({ctor}({}))",
        inits.join(", ")
    )
}

/// Read `ctor(..)` from the next array in one pass: its first
/// `types.len()` elements as the fields, any further ones skipped, as
/// [`seq_from_value`] does.
fn seq_read(types: &[String], what: &str, ctor: &str) -> String {
    let what = format!("sequence for {what}");
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = Vec::new();
    for (i, ty) in types.iter().enumerate() {
        slots += &format!("let mut f{i}: ::std::option::Option<{ty}> = None;\n");
        arms += &format!("{i} => f{i} = Some(::serde::read_index(r, {i})?),\n");
        inits.push(format!("::serde::take_index(f{i}, {i})?"));
    }
    format!(
        "{slots}\
         r.seq({what:?}, |r, i| {{\n\
             match i {{\n\
                 {arms}\
                 _ => r.skip()?,\n\
             }}\n\
             Ok(())\n\
         }})?;\n\
         Ok({ctor}({}))",
        inits.join(", ")
    )
}
