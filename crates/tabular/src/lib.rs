//! # tabular
//!
//! A small, null-aware, columnar in-memory table engine.
//!
//! This crate is the relational substrate of the MESA reproduction: it stores
//! the input datasets and the attributes MESA extracts from a knowledge graph,
//! evaluates the aggregate group-by queries whose correlations the system
//! explains, and provides binning/encoding for the information-theoretic
//! estimators.
//!
//! Main entry points:
//!
//! * [`DataFrame`] / [`Column`] — the table and column types.
//! * [`AggregateQuery`] — `SELECT T, agg(O) FROM D WHERE C GROUP BY T`.
//! * [`Predicate`] — the `WHERE` clause / context `C` and its refinements.
//! * [`bin_frame_encoded`] — discretisation for numeric attributes.
//! * [`read_csv`] / [`write_csv`] — persistence.
//!
//! ```
//! use tabular::{AggregateQuery, DataFrameBuilder, Predicate};
//!
//! let df = DataFrameBuilder::new()
//!     .cat("Country", vec![Some("Germany"), Some("Italy"), Some("Germany")])
//!     .float("Deaths", vec![Some(2.1), Some(12.5), Some(2.3)])
//!     .build()
//!     .unwrap();
//! let q = AggregateQuery::avg("Country", "Deaths");
//! let result = q.run(&df).unwrap();
//! assert_eq!(result.n_rows(), 2);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod binning;
pub mod bitmap;
pub mod column;
pub mod csv;
pub mod dataframe;
pub mod error;
pub mod expr;
pub mod groupby;
pub mod join;
pub mod query;
pub mod storage;
pub mod value;

pub use aggregate::AggFn;
pub use binning::{bin_column, bin_frame_encoded, quantile, BinStrategy};
pub use bitmap::Bitmap;
pub use column::{Column, ColumnData, EncodedColumn};
pub use csv::{read_csv, read_csv_str, write_csv, write_csv_str};
pub use dataframe::{DataFrame, DataFrameBuilder};
pub use error::{Result, TabularError};
pub use expr::Predicate;
pub use groupby::{group_aggregate, group_by, Group};
pub use join::{join, join_rendered, JoinKind};
pub use query::AggregateQuery;
pub use storage::{
    Access, ColumnView, Encoding, EncodingChoice, PackedInts, Run, RunIter, SealedColumn,
    SealedView,
};
pub use value::{parse_token, DType, Value};
