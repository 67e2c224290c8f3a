//! `#[derive(ToJson, FromJson)]` for the persisted types of the proxim
//! workspace, implementing the traits of `proxim_obs::json` (which
//! re-exports both macros).
//!
//! The build is offline and dependency-free, so the macros read the item's
//! token stream directly instead of going through `syn`/`quote`. They
//! support exactly the shapes the workspace persists:
//!
//! - structs with named fields and no generics, encoded as an object with
//!   one member per field, in declaration order;
//! - enums whose variants are units, encoded as `"Name"`, or carry one
//!   value, encoded as `{"Name":value}`.
//!
//! Anything else panics at expansion time with a message naming the item.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// An enum variant: a unit, or a tuple variant carrying one value.
struct Variant {
    name: String,
    carries_value: bool,
}

enum Body {
    /// The field names, in declaration order.
    Struct(Vec<String>),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    body: Body,
}

/// Derives `proxim_obs::json::ToJson`.
#[proc_macro_derive(ToJson)]
pub fn derive_to_json(input: TokenStream) -> TokenStream {
    gen_to_json(&parse_item(input))
        .parse()
        .expect("json_derive: generated an invalid ToJson impl")
}

/// Derives `proxim_obs::json::FromJson`.
#[proc_macro_derive(FromJson)]
pub fn derive_from_json(input: TokenStream) -> TokenStream {
    gen_from_json(&parse_item(input))
        .parse()
        .expect("json_derive: generated an invalid FromJson impl")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn is_punct(t: Option<&TokenTree>, c: char) -> bool {
    matches!(t, Some(TokenTree::Punct(p)) if p.as_char() == c)
}

fn is_group(t: Option<&TokenTree>, d: Delimiter) -> bool {
    matches!(t, Some(TokenTree::Group(g)) if g.delimiter() == d)
}

fn parse_item(input: TokenStream) -> Item {
    let mut it = input.into_iter().peekable();
    // Skip outer attributes and visibility up to `struct`/`enum`.
    let kind = loop {
        match it.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                it.next(); // the attribute's `[...]`
            }
            Some(TokenTree::Ident(id)) => match id.to_string().as_str() {
                "pub" => {
                    if is_group(it.peek(), Delimiter::Parenthesis) {
                        it.next(); // `pub(crate)` and friends
                    }
                }
                kw @ ("struct" | "enum") => break kw.to_string(),
                other => panic!("json_derive: unexpected `{other}` before the item"),
            },
            other => panic!("json_derive: unexpected token before the item: {other:?}"),
        }
    };
    let name = match it.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("json_derive: expected the item name, got {other:?}"),
    };
    let body = match it.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => panic!("json_derive: `{name}` must be a braced struct or enum without generics"),
    };
    let body = if kind == "struct" {
        Body::Struct(parse_fields(body))
    } else {
        Body::Enum(parse_variants(&name, body))
    };
    Item { name, body }
}

/// Skips `#[...]` attributes (doc comments included).
fn skip_attributes(it: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    while is_punct(it.peek(), '#') {
        it.next();
        it.next();
    }
}

fn parse_fields(stream: TokenStream) -> Vec<String> {
    let mut it = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attributes(&mut it);
        if matches!(it.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            it.next();
            if is_group(it.peek(), Delimiter::Parenthesis) {
                it.next();
            }
        }
        let name = match it.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("json_derive: expected a field name, got {other:?}"),
        };
        assert!(
            is_punct(it.next().as_ref(), ':'),
            "json_derive: expected `:` after field `{name}`"
        );
        // Skip the type: everything up to a comma outside `<...>`.
        let mut depth = 0i32;
        for t in it.by_ref() {
            if let TokenTree::Punct(p) = &t {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
        }
        fields.push(name);
    }
    fields
}

fn parse_variants(item: &str, stream: TokenStream) -> Vec<Variant> {
    let mut it = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attributes(&mut it);
        let name = match it.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("json_derive: expected a variant of `{item}`, got {other:?}"),
        };
        let carries_value = is_group(it.peek(), Delimiter::Parenthesis);
        if let Some(TokenTree::Group(g)) = it.peek().filter(|_| carries_value) {
            assert!(
                single_type(g.stream()),
                "json_derive: variant `{item}::{name}` must carry exactly one value"
            );
            it.next();
        }
        assert!(
            it.peek().is_none() || is_punct(it.peek(), ','),
            "json_derive: variant `{item}::{name}` must be a unit or carry one value"
        );
        if is_punct(it.peek(), ',') {
            it.next();
        }
        variants.push(Variant {
            name,
            carries_value,
        });
    }
    variants
}

/// Whether a tuple variant's field list names exactly one type: non-empty,
/// with no comma outside `<...>` except a trailing one.
fn single_type(stream: TokenStream) -> bool {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let body = match tokens.split_last() {
        Some((last, rest)) if is_punct(Some(last), ',') => rest,
        _ => &tokens[..],
    };
    let mut depth = 0i32;
    !body.is_empty()
        && body.iter().all(|t| match t {
            TokenTree::Punct(p) => {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' => return depth != 0,
                    _ => {}
                }
                true
            }
            _ => true,
        })
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

const JSON: &str = "::proxim_obs::json";

fn gen_to_json(item: &Item) -> String {
    let body = match &item.body {
        Body::Struct(fields) => {
            let mut s = String::new();
            for (i, f) in fields.iter().enumerate() {
                let sep = if i == 0 { "{" } else { "," };
                s += &format!(
                    "out.push_str({:?});\n{JSON}::ToJson::encode(&self.{f}, out)?;\n",
                    format!("{sep}\"{f}\":")
                );
            }
            if fields.is_empty() {
                s += "out.push('{');\n";
            }
            s + "out.push('}');\n"
        }
        Body::Enum(variants) => {
            let mut s = String::from("match self {\n");
            for v in variants {
                let n = &v.name;
                s += &if v.carries_value {
                    format!(
                        "Self::{n}(value) => {{\nout.push_str({:?});\n\
                         {JSON}::ToJson::encode(value, out)?;\nout.push('}}');\n}}\n",
                        format!("{{\"{n}\":")
                    )
                } else {
                    format!("Self::{n} => out.push_str({:?}),\n", format!("\"{n}\""))
                };
            }
            s + "}\n"
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl {JSON}::ToJson for {name} {{\n\
         fn encode(&self, out: &mut ::std::string::String) \
         -> ::core::result::Result<(), {JSON}::CodecError> {{\n\
         {body}::core::result::Result::Ok(())\n}}\n}}\n",
        name = item.name
    )
}

fn gen_from_json(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(fields) => {
            let mut s = format!(
                "#[allow(unused_mut)]\n\
                 let mut members = {JSON}::object(value, \"{name}\")?;\n\
                 ::core::result::Result::Ok(Self {{\n"
            );
            for f in fields {
                s += &format!("{f}: {JSON}::field(&mut members, \"{f}\")?,\n");
            }
            s + "})\n"
        }
        Body::Enum(variants) => {
            let mut s = format!(
                "let (name, payload) = {JSON}::variant(value, \"{name}\")?;\n\
                 match (name.as_str(), payload) {{\n"
            );
            for v in variants {
                let n = &v.name;
                s += &if v.carries_value {
                    format!(
                        "(\"{n}\", ::core::option::Option::Some(v)) => \
                         ::core::result::Result::Ok(Self::{n}({JSON}::FromJson::decode(v)?)),\n"
                    )
                } else {
                    format!(
                        "(\"{n}\", ::core::option::Option::None) => \
                         ::core::result::Result::Ok(Self::{n}),\n"
                    )
                };
            }
            s + &format!(
                "_ => ::core::result::Result::Err({JSON}::unknown_variant(\"{name}\", &name)),\n}}\n"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl {JSON}::FromJson for {name} {{\n\
         fn decode(value: {JSON}::Json) \
         -> ::core::result::Result<Self, {JSON}::CodecError> {{\n{body}}}\n}}\n"
    )
}
