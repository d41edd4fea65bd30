//! What the three series share: the `{schema, host, ..sections}`
//! envelope every `BENCH_pr*.json` artifact is written in, and the one
//! validator — a table of (field path, what it must hold) per schema —
//! that accepts or rejects such a file.

use mpq_bench::json::Json;

/// One series: its subcommand, artifact identity, measurement and the
/// rule table its artifact must satisfy.
pub struct Series {
    /// Subcommand name (`series <name>`).
    pub name: &'static str,
    /// The artifact's `schema` tag.
    pub schema: &'static str,
    /// Where the artifact goes without `--out`.
    pub default_out: &'static str,
    /// Measure and return every section after `schema` and `host`
    /// (`workload` first among them). Arguments: `quick`, host cores.
    pub run: fn(bool, usize) -> Vec<(&'static str, Json)>,
    /// Shape and acceptance rules over the whole document.
    pub rules: &'static [Rule],
    /// Fields echoed on the `OK (…)` line (an array prints its length).
    pub summary: &'static [&'static str],
}

/// The field at a dotted path (relative to the document, or to the row
/// inside [`Must::Rows`]) and what it must hold.
#[derive(Debug)]
pub struct Rule(pub &'static str, pub Must);

/// A constraint on one field. Paths in `NoLessThan`, `NoMoreThan` and
/// `SumOf` resolve in the same scope as the rule's own path.
#[derive(Debug)]
pub enum Must {
    /// Any number.
    Num,
    /// A number `>=` the bound.
    Min(f64),
    /// A number `>` the bound.
    Above(f64),
    /// A number `<=` the bound.
    Max(f64),
    /// A number `>=` the number at the other path.
    NoLessThan(&'static str),
    /// A number `<=` the number at the other path.
    NoMoreThan(&'static str),
    /// A number equal to the sum of the numbers at the other paths.
    SumOf(&'static [&'static str]),
    /// Any string.
    Str,
    /// One of the listed strings.
    OneOf(&'static [&'static str]),
    /// Either boolean.
    Bool,
    /// `true` — an acceptance bar the run must have met.
    True,
    /// An array of at least this many objects, each obeying the rules.
    Rows(usize, &'static [Rule]),
    /// An array in which some row's number at the path exceeds the bound.
    SomeRowAbove(&'static str, f64),
}

fn lookup<'a>(scope: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(scope, |at, key| at.get(key))
}

fn check(scope: &Json, prefix: &str, rules: &[Rule]) -> Result<(), String> {
    for Rule(path, must) in rules {
        let at = format!("{prefix}{path}");
        let field = lookup(scope, path);
        let number = |path: &str| {
            lookup(scope, path)
                .and_then(Json::as_f64)
                .ok_or(format!("missing numeric '{prefix}{path}'"))
        };
        let text = || {
            field
                .and_then(Json::as_str)
                .ok_or(format!("missing string '{at}'"))
        };
        let boolean = || {
            field
                .and_then(Json::as_bool)
                .ok_or(format!("missing boolean '{at}'"))
        };
        let array = || {
            field
                .and_then(Json::as_arr)
                .ok_or(format!("missing array '{at}'"))
        };
        let holds = match must {
            Must::Num => number(path).is_ok(),
            Must::Min(bound) => number(path)? >= *bound,
            Must::Above(bound) => number(path)? > *bound,
            Must::Max(bound) => number(path)? <= *bound,
            Must::NoLessThan(other) => number(path)? >= number(other)?,
            Must::NoMoreThan(other) => number(path)? <= number(other)?,
            Must::SumOf(parts) => {
                let mut sum = 0.0;
                for part in *parts {
                    sum += number(part)?;
                }
                number(path)? == sum
            }
            Must::Str => text().is_ok(),
            Must::OneOf(allowed) => allowed.contains(&text()?),
            Must::Bool => boolean().is_ok(),
            Must::True => boolean()?,
            Must::Rows(min, each) => {
                let rows = array()?;
                for (i, row) in rows.iter().enumerate() {
                    check(row, &format!("{at}[{i}]."), each)?;
                }
                if rows.len() < *min {
                    return Err(format!("'{at}' needs at least {min} rows"));
                }
                true
            }
            Must::SomeRowAbove(column, bound) => array()?
                .iter()
                .any(|row| lookup(row, column).and_then(Json::as_f64) > Some(*bound)),
        };
        if !holds {
            let found = field.map_or("nothing".to_string(), Json::render);
            return Err(format!("'{at}' must be {must:?}, found {found}"));
        }
    }
    Ok(())
}

/// Validate an artifact against whichever of `known` its `schema` tag
/// names. Returns the one-line summary.
pub fn validate(doc: &Json, known: &[&Series]) -> Result<String, String> {
    let tag = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing 'schema'")?;
    let series = known
        .iter()
        .find(|s| s.schema == tag)
        .ok_or(format!("unknown schema '{tag}'"))?;
    check(doc, "", &[Rule("host.cores", Must::Num)])?;
    check(doc, "", series.rules)?;
    let echoed: Vec<String> = series
        .summary
        .iter()
        .filter_map(|path| {
            let field = lookup(doc, path)?;
            let shown = field
                .as_arr()
                .map_or_else(|| field.render(), |rows| rows.len().to_string());
            Some(format!("{path} {shown}"))
        })
        .collect();
    Ok(format!("{tag}: {}", echoed.join(", ")))
}

/// [`validate`] a file on disk.
pub fn validate_file(path: &str, known: &[&Series]) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    validate(&Json::parse(&text)?, known)
}

/// Run `series`, wrap its sections in the envelope, write the artifact
/// to `out` and validate what was written.
pub fn emit(series: &'static Series, quick: bool, out: &str) -> Result<String, String> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut entries = (series.run)(quick, cores);
    entries.push(("schema", Json::Str(series.schema.into())));
    entries.push(("host", Json::obj([("cores", Json::Num(cores as f64))])));
    std::fs::write(out, Json::obj(entries).render() + "\n")
        .map_err(|e| format!("cannot write: {e}"))?;
    println!("wrote {out}");
    validate_file(out, &[series])
}
