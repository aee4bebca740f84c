pub mod grouped;
pub mod local;
pub mod pathed;
