pub mod unused;
