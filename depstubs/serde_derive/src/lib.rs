//! Offline stand-in for `serde_derive`.
//!
//! Generates impls of the stand-in `serde::Serialize` /
//! `serde::Deserialize` traits (which route through the JSON-shaped
//! `serde::__private::Value` tree — see the serde stand-in's crate
//! docs). Supported shapes:
//!
//! * structs with named fields → JSON objects keyed by field name;
//! * enums of unit variants → JSON strings holding the variant name;
//! * enums with `#[serde(tag = "..")]` of unit or named-field variants
//!   → JSON objects holding the variant name under the tag key, beside
//!   the variant's fields.
//!
//! Supported attributes, spelled and behaving as in real serde:
//!
//! | on | attribute | effect |
//! |----|-----------|--------|
//! | container | `default` | a missing key takes its field from `Self::default()` |
//! | container | `rename_all = "lowercase"` | keys and variant names are lowercased |
//! | enum | `tag = "kind"` | internally tagged enum (see above) |
//! | field | `rename = "name"` | the field's key is `name` |
//! | field | `flatten` | the field's object entries sit in the parent object |
//! | field | `with = "module"` | the field goes through `module::serialize` / `module::deserialize` |
//!
//! A `with` module provides, for a field of type `T`:
//!
//! ```text
//! fn serialize(value: &T) -> serde::__private::Value;
//! fn deserialize(value: &serde::__private::Value) -> Result<T, serde::__private::Error>;
//! ```
//!
//! (`serialize` may take `&[E]` for a `Vec<E>` field.) A missing key
//! reaches `deserialize` as `Value::Null`, as it does a derived field,
//! so `Option` fields default to `None`. A flattened field should
//! serialize to an object; any other value is kept under its own key.
//!
//! Anything else — tuple structs, generics, tuple variants, other serde
//! attributes — is a `compile_error!` naming the limitation, so an
//! unsupported use fails at build time instead of misbehaving at run
//! time.

#![deny(missing_docs)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// What a derive input parsed into.
struct Item {
    name: String,
    /// Container `default`.
    default: bool,
    /// Container `tag = ".."`.
    tag: Option<String>,
    is_enum: bool,
    /// The struct's fields, or the enum's variants.
    members: Vec<Member>,
}

/// A struct field or an enum variant.
struct Member {
    ident: String,
    key: String,
    flatten: bool,
    with: Option<String>,
    /// A variant's named fields.
    fields: Vec<Member>,
}

/// Derives the stand-in `serde::Serialize` (see crate docs).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, |item| {
        let name = &item.name;
        let body = if item.is_enum {
            let arms: String = item
                .members
                .iter()
                .map(|v| {
                    let value = match &item.tag {
                        Some(tag) => object(Some((tag, &v.key)), &v.fields, ""),
                        None => format!("::serde::Serialize::serialize(\"{}\")", v.key),
                    };
                    let bindings: Vec<&str> = v.fields.iter().map(|f| &f.ident[..]).collect();
                    format!(
                        "{name}::{} {{ {} }} => {value},",
                        v.ident,
                        bindings.join(",")
                    )
                })
                .collect();
            format!("match self {{ {arms} }}")
        } else {
            object(None, &item.members, "&self.")
        };
        format!(
            "impl ::serde::Serialize for {name} {{ \
             fn serialize(&self) -> ::serde::__private::Value {{ {body} }} }}"
        )
    })
}

/// Derives the stand-in `serde::Deserialize` (see crate docs).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, |item| {
        let name = &item.name;
        let body = if item.is_enum {
            let arms: String = item
                .members
                .iter()
                .map(|v| {
                    let value = format!(
                        "{name}::{} {{ {} }}",
                        v.ident,
                        initializers(&v.fields, false)
                    );
                    format!("\"{}\" => ::std::result::Result::Ok({value}),", v.key)
                })
                .collect();
            let tag = item
                .tag
                .as_ref()
                .map_or("None".to_string(), |t| format!("Some(\"{t}\")"));
            format!(
                "match ::serde::__private::variant(__v, {tag}, \"{name}\")? {{ {arms} \
                 __s => ::std::result::Result::Err(::serde::__private::unknown_variant(__s, \"{name}\")), }}"
            )
        } else {
            let defaults = match item.default {
                true => "let __d: Self = ::std::default::Default::default();",
                false => "",
            };
            format!(
                "::serde::__private::object(__v, \"{name}\")?; {defaults} \
                 ::std::result::Result::Ok({name} {{ {} }})",
                initializers(&item.members, item.default)
            )
        };
        format!(
            "impl ::serde::Deserialize for {name} {{ \
             fn deserialize(__v: &::serde::__private::Value) \
             -> ::std::result::Result<Self, ::serde::__private::Error> {{ {body} }} }}"
        )
    })
}

fn expand(input: TokenStream, generate: impl Fn(&Item) -> String) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => generate(&item),
        Err(msg) => format!(
            "compile_error!(\"serde stand-in derive: {}\");",
            msg.replace('"', "'")
        ),
    };
    code.parse().expect("generated code parses")
}

/// A block building the object of `fields` (each read as
/// `{access}{ident}`), led by the `(key, name)` tag entry if any.
fn object(tag: Option<(&str, &str)>, fields: &[Member], access: &str) -> String {
    let insert = |key: &str, flatten: bool, value: String| {
        format!("::serde::__private::insert(&mut __m, \"{key}\", {flatten}, {value});")
    };
    let mut code = tag.map_or(String::new(), |(key, name)| {
        insert(
            key,
            false,
            format!("::serde::Serialize::serialize(\"{name}\")"),
        )
    });
    for f in fields {
        let module = f.with.as_deref().unwrap_or("::serde::Serialize");
        code += &insert(
            &f.key,
            f.flatten,
            format!("{module}::serialize({access}{})", f.ident),
        );
    }
    format!(
        "{{ let mut __m = ::std::collections::BTreeMap::new(); {code} \
         ::serde::__private::Value::Object(__m) }}"
    )
}

/// `ident: expr,` initializers reading each field from `__v`; with
/// `default`, a missing key takes the field of `__d`.
fn initializers(fields: &[Member], default: bool) -> String {
    let mut code = String::new();
    for f in fields {
        let module = f.with.as_deref().unwrap_or("::serde::Deserialize");
        let fallback = match default {
            true => format!("Some(__d.{})", f.ident),
            false => "None".to_string(),
        };
        code += &format!(
            "{}: ::serde::__private::field(__v, \"{}\", {}, {module}::deserialize, {fallback})?,",
            f.ident, f.key, f.flatten
        );
    }
    code
}

/// Parses a derive input into [`Item`], rejecting unsupported shapes.
fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let (mut default, mut lowercase, mut tag) = (false, false, None);
    for (key, value) in attrs_and_vis(&tokens, &mut i)? {
        match (&key[..], value) {
            ("default", None) => default = true,
            ("rename_all", Some(v)) if v == "lowercase" => lowercase = true,
            ("tag", Some(v)) => tag = Some(v),
            (_, value) => return Err(unsupported("container", &key, value)),
        }
    }
    let (kind, name, body) = match (tokens.get(i), tokens.get(i + 1), tokens.get(i + 2)) {
        (Some(TokenTree::Ident(kind)), Some(TokenTree::Ident(name)), Some(TokenTree::Group(g)))
            if g.delimiter() == Delimiter::Brace =>
        {
            (kind.to_string(), name.to_string(), g.stream())
        }
        _ => return Err("only structs with named fields and enums, without generics".into()),
    };
    let is_enum = kind == "enum";
    let members = parse_members(body, lowercase)?;
    if !is_enum && tag.is_some() {
        return Err(format!("`tag` on struct `{name}`"));
    }
    for v in members.iter().filter(|_| is_enum) {
        if v.flatten || v.with.is_some() || (tag.is_none() && !v.fields.is_empty()) {
            return Err(format!(
                "variant `{}`: only `rename`, and data only with `tag`",
                v.ident
            ));
        }
    }
    Ok(Item {
        name,
        default,
        tag,
        is_enum,
        members,
    })
}

fn unsupported(place: &str, key: &str, value: Option<String>) -> String {
    match value {
        Some(v) => format!("unsupported {place} attribute `{key} = \"{v}\"`"),
        None => format!("unsupported {place} attribute `{key}`"),
    }
}

/// Advances past outer attributes (`#[...]`, doc comments) and a
/// `pub`/`pub(...)` visibility prefix, returning the `key` /
/// `key = "value"` entries of any `#[serde(..)]` among them.
fn attrs_and_vis(
    tokens: &[TokenTree],
    i: &mut usize,
) -> Result<Vec<(String, Option<String>)>, String> {
    let mut entries = Vec::new();
    loop {
        match (tokens.get(*i), tokens.get(*i + 1)) {
            (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g))) if p.as_char() == '#' => {
                *i += 2;
                let attr: Vec<TokenTree> = g.stream().into_iter().collect();
                let [TokenTree::Ident(id), TokenTree::Group(list)] = &attr[..] else {
                    continue;
                };
                if id.to_string() != "serde" {
                    continue;
                }
                let list: Vec<TokenTree> = list.stream().into_iter().collect();
                for entry in list.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ','))
                {
                    entries.push(match entry {
                        [] => continue,
                        [TokenTree::Ident(key)] => (key.to_string(), None),
                        [TokenTree::Ident(key), TokenTree::Punct(eq), TokenTree::Literal(lit)]
                            if eq.as_char() == '=' =>
                        {
                            let lit = lit.to_string();
                            let value = lit.strip_prefix('"').and_then(|s| s.strip_suffix('"'));
                            let value = value
                                .ok_or_else(|| format!("`{key}` takes a string, not {lit}"))?;
                            (key.to_string(), Some(value.to_string()))
                        }
                        other => {
                            let text: Vec<String> = other.iter().map(ToString::to_string).collect();
                            return Err(format!("malformed serde attribute `{}`", text.join(" ")));
                        }
                    });
                }
            }
            (Some(TokenTree::Ident(id)), next) if id.to_string() == "pub" => {
                // An optional `(crate)` / `(super)` restriction follows.
                let restricted = matches!(next, Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis);
                *i += 1 + usize::from(restricted);
            }
            _ => return Ok(entries),
        }
    }
}

/// The members of a struct body (`name: Type` fields) or an enum body
/// (variants, each with optional `{ named fields }`).
///
/// Field types are skipped rather than parsed — the generated code
/// never needs them (trait dispatch recovers them) — by scanning to the
/// next top-level `,`, tracking `<`/`>` nesting so commas inside
/// generics don't split a field. Exotic types containing a bare `->` or
/// `>>` punctuation outside a group would confuse the scan; none occur
/// in this workspace.
fn parse_members(body: TokenStream, lowercase: bool) -> Result<Vec<Member>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut members = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let entries = attrs_and_vis(&tokens, &mut i)?;
        let ident = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            Some(t) => return Err(format!("expected a field or variant name, found `{t}`")),
        };
        i += 1;
        let mut fields = Vec::new();
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {
                let mut angle = 0i32;
                while let Some(t) = tokens.get(i) {
                    match t {
                        TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                        TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                        TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => break,
                        _ => {}
                    }
                    i += 1;
                }
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                fields = parse_members(g.stream(), false)?;
                i += 1;
            }
            Some(TokenTree::Group(_)) => return Err(format!("tuple variant `{ident}`")),
            _ => {}
        }
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            None => {}
            Some(t) => return Err(format!("unexpected `{t}` after `{ident}`")),
        }
        let (mut key, mut flatten, mut with) = (None, false, None);
        for (attr, value) in entries {
            match (&attr[..], value) {
                ("rename", Some(v)) => key = Some(v),
                ("flatten", None) => flatten = true,
                ("with", Some(v)) => with = Some(v),
                (_, value) => return Err(unsupported("field or variant", &attr, value)),
            }
        }
        let key = key.unwrap_or_else(|| match lowercase {
            true => ident.to_lowercase(),
            false => ident.clone(),
        });
        members.push(Member {
            ident,
            key,
            flatten,
            with,
            fields,
        });
    }
    Ok(members)
}
