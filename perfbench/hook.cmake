# Included at the end of the repository's top-level project() call
# (CMAKE_PROJECT_INCLUDE). It defers the benchmark's targets until the whole
# top-level CMakeLists.txt has been processed, so they are compiled with
# exactly the flags and options of the repository's own default build.
cmake_language(EVAL CODE "
  cmake_language(DEFER DIRECTORY [[${CMAKE_SOURCE_DIR}]]
                 CALL include [[${CMAKE_CURRENT_LIST_DIR}/targets.cmake]])
")
